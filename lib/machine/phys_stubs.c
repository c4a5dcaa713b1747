/* Guest RAM outside the OCaml heap (see phys.ml).

   A RAM block is a one-dimensional char Bigarray over an anonymous
   private mapping.  The kernel hands out its pages zero-filled on first
   touch, so a block costs resident memory only for the pages the guest
   writes, and the major heap never counts it: the GC paces its work
   against the heap it scans, not against guest RAM.

   The block's custom operations are the stock Bigarray ones with the
   finalizer replaced by one that unmaps.  They are a static table, so
   there is nothing to set up at run time and no first call for two
   domains to race on.  [Bigarray.Array1.sub] copies its parent's
   operations into the sub-array, so the finalizer unmaps only the
   block that owns the mapping, never a [CAML_BA_SUBARRAY] view of it. */

#define CAML_INTERNALS
#include <string.h>
#include <sys/mman.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/custom.h>
#include <caml/bigarray.h>
#include <caml/md5.h>

static void cms_phys_finalize(value v)
{
  struct caml_ba_array *b = Caml_ba_array_val(v);
  if (!(b->flags & CAML_BA_SUBARRAY) && b->data != NULL)
    munmap(b->data, b->dim[0]);
}

static struct custom_operations cms_phys_ops = {
  "_bigarr02",
  cms_phys_finalize,
  caml_ba_compare,
  caml_ba_hash,
  caml_ba_serialize,
  caml_ba_deserialize,
  custom_compare_ext_default,
  custom_fixed_length_default
};

/* [size] zero bytes.  [mmap], not [calloc]: once a large block has been
   freed, glibc raises its mmap threshold and serves the next [calloc]
   from its own heap, zero-filled and resident. */
value cms_phys_alloc(value vsize)
{
  intnat size = Long_val(vsize);
  void *data;
  value v;
  struct caml_ba_array *b;
  if (size < 0) caml_invalid_argument("Phys.create: negative size");
  /* [size] is reported as out-of-heap memory, so a block nobody
     releases is reclaimed at the pace of its size.  The block is made
     first, so a raise leaves no mapping behind. */
  v = caml_alloc_custom_mem(&cms_phys_ops, SIZEOF_BA_ARRAY + sizeof(intnat),
                            size);
  b = Caml_ba_array_val(v);
  b->data = NULL;
  b->num_dims = 1;
  b->flags = CAML_BA_CHAR | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL;
  b->proxy = NULL;
  b->dim[0] = size;
  if (size > 0) {
    data = mmap(NULL, size, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (data == MAP_FAILED) caml_raise_out_of_memory();
    b->data = data;
  }
  return v;
}

/* MD5 of the whole block: the digest [Digest.bytes] gives of the same
   bytes. */
value cms_phys_md5(value vba)
{
  /* read before the allocation, which may move [vba] */
  void *data = Caml_ba_data_val(vba);
  intnat size = Caml_ba_array_val(vba)->dim[0];
  value res = caml_alloc_string(16);
  caml_md5_block((unsigned char *) Bytes_val(res), data, size);
  return res;
}

/* The copies below are bounds-checked by their OCaml callers. */

value cms_phys_blit_to_bytes(value vba, value vsrc, value vdst, value vdoff,
                             value vlen)
{
  memcpy(Bytes_val(vdst) + Long_val(vdoff),
         (char *) Caml_ba_data_val(vba) + Long_val(vsrc), Long_val(vlen));
  return Val_unit;
}

value cms_phys_blit_from_string(value vsrc, value vsoff, value vba,
                                value vdst, value vlen)
{
  memcpy((char *) Caml_ba_data_val(vba) + Long_val(vdst),
         String_val(vsrc) + Long_val(vsoff), Long_val(vlen));
  return Val_unit;
}

value cms_phys_zero(value vba, value voff, value vlen)
{
  memset((char *) Caml_ba_data_val(vba) + Long_val(voff), 0, Long_val(vlen));
  return Val_unit;
}

/* Are the [len] bytes at [off] all zero?  The first is, and each of the
   others equals the one before it. */
value cms_phys_is_zero(value vba, value voff, value vlen)
{
  const unsigned char *p =
    (const unsigned char *) Caml_ba_data_val(vba) + Long_val(voff);
  intnat len = Long_val(vlen);
  return Val_bool(len == 0 || (p[0] == 0 && memcmp(p, p + 1, len - 1) == 0));
}
