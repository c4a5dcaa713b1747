(** The [bench hotpath] kernel: one hot copy/accumulate loop, mostly
    loads and stores, like memcpy or a checksum inner loop.  The bench
    times it across the whole execution ladder; the allocation tests
    pin its per-instruction allocation under the production config.

    Body offsets come from a deterministic splittable RNG (fixed seed,
    no global state), so every run executes the identical access
    pattern while still touching a spread of cache lines rather than a
    hand-picked handful.  The body is long enough (48 insns) that, under
    a short region cap, each iteration crosses several translation
    boundaries. *)

let listing ~iters =
  let rng = Srng.create 0xbe7c4 in
  let off () = 0x8000 + (4 * Srng.int rng 0x400) in
  let body =
    List.concat
      (List.init 12 (fun _ ->
           X86.Asm.
             [
               mov_rm eax (mbd esi (off ()));
               add_ri eax 1;
               mov_mr (mbd esi (off ())) eax;
               add_mi (mbd esi (off ())) 7;
             ]))
  in
  X86.Asm.(
    assemble ~base:0x1000
      ([ mov_ri ecx iters; label "l" ] @ body @ [ dec_r ecx; jne "l"; hlt ]))

(** Entry point of {!listing}. *)
let entry = 0x1000
