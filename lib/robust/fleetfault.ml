(** Seeded fault plans for the fleet campaign.

    Where {!Chaos} attacks one engine from the host side and {!Storm}
    attacks one machine from the device side, this layer attacks the
    *fleet*: machine deaths at adversarial retired-clock instants,
    stall-watchdog wedges, permanent faults that drive the supervisor's
    quarantine ladder, and attacks on the shared translation store
    itself (blob corruption, consistent-looking tampered code,
    truncated images).  Everything is a pure function of the seed; the
    fleet supervisor ({!Cms_fleet.Fleet}) acts the plans out.

    Packet traffic is count-preserving by design: every machine in a
    case serves the *same number* of frames (so all machines boot the
    byte-identical RX-server kernel image and the shared store actually
    shares), while frame contents, corruption, and reordering are
    seeded per machine — same workload image, different inputs. *)

module Journal = Cms_persist.Journal

(* ------------------------------------------------------------------ *)
(* Machine faults                                                      *)
(* ------------------------------------------------------------------ *)

type fault =
  | Kill of { at : int }
      (** one-shot machine death at the given retired-clock instant —
          a transient fault; the restarted machine survives it *)
  | Wedge of { at : int }
      (** one-shot stall-watchdog trip: the machine stops making
          progress and the supervisor's watchdog reaps it *)
  | Permafault of { at : int }
      (** refires on every attempt once reached — a persistent fault
          that must climb the backoff ladder into permanent quarantine *)

(* ------------------------------------------------------------------ *)
(* Store attacks                                                       *)
(* ------------------------------------------------------------------ *)

type store_attack =
  | Flip_blob
      (** flip one byte of a live entry's blob without fixing its MD5 —
          plain store corruption; the consumer's digest check rejects *)
  | Tamper_code
      (** re-serialize a live entry with a mangled molecule body and a
          *consistent* MD5 — the digest passes, the source bytes still
          match, and only the molecule verifier stands between the
          poisoned code and the consumer *)
  | Truncate_image
      (** serialize the store and truncate the image mid-byte — the
          torn-image case a killed publisher could leave without the
          atomic rename; the container codec must reject it and the
          affected machine degrades to its private translator *)

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type machine_plan = {
  mp_frames : string list;  (** delivered frame stream, ground truth *)
  mp_ats : int list;  (** arrival instants, sorted, one per frame *)
  mp_faults : fault list;
  mp_chaos_seed : int option;
}

type plan = {
  p_idx : int;
  p_nframes : int;  (** identical across machines: identical kernel *)
  p_machines : machine_plan list;
  p_attacks : (int * store_attack) list;
      (** (machine index, attack): fired after that machine finishes *)
}

type profile = {
  n_machines : int;
  nframes : int * int;  (** frames per machine (fixed within a case) *)
  pkt_len : int * int;
  oversize : int;  (** per-mille, as in {!Storm.profile} *)
  corrupt : int;
  reorder : int;
  fault_share : int;  (** percent of machines carrying any fault *)
  perma_share : int;  (** percent of faulty machines whose fault persists *)
  chaos_share : int;  (** percent of machines also chaos-armed *)
  attack_share : int;  (** percent of cases attacking the store *)
  at_hi : int;  (** latest retired-clock instant for any event *)
}

let default_profile =
  {
    n_machines = 3;
    nframes = (3, 8);
    pkt_len = (1, 48);
    oversize = 60;
    corrupt = 150;
    reorder = 150;
    fault_share = 45;
    perma_share = 20;
    chaos_share = 35;
    attack_share = 45;
    at_hi = 150_000;
  }

(* Count-preserving channel faults: corruption and reordering only, so
   every machine's delivered stream has exactly [nframes] frames and
   the generated kernels are byte-identical across the fleet. *)
let gen_frames rng (p : profile) ~nframes =
  Storm.raw_frames rng ~n:nframes ~oversize:p.oversize ~pkt_len:p.pkt_len
  |> Storm.corrupt_frames rng ~rate:p.corrupt
  |> Storm.reorder_frames rng ~rate:p.reorder

let gen_machine rng (p : profile) ~nframes =
  let frames = gen_frames rng p ~nframes in
  let ats =
    List.init nframes (fun _ -> Srng.range rng 1_000 p.at_hi)
    |> List.sort compare
  in
  let faults =
    if not (Srng.chance rng p.fault_share 100) then []
    else if Srng.chance rng p.perma_share 100 then
      [ Permafault { at = Srng.range rng 2_000 p.at_hi } ]
    else
      List.init
        (Srng.range rng 1 2)
        (fun _ ->
          let at = Srng.range rng 2_000 p.at_hi in
          if Srng.chance rng 30 100 then Wedge { at } else Kill { at })
  in
  let chaos_seed =
    if Srng.chance rng p.chaos_share 100 then Some (Srng.int rng 0x3fffffff)
    else None
  in
  { mp_frames = frames; mp_ats = ats; mp_faults = faults;
    mp_chaos_seed = chaos_seed }

let gen_plan rng (p : profile) idx =
  let nframes = Srng.range rng (fst p.nframes) (snd p.nframes) in
  let machines =
    List.init p.n_machines (fun _ -> gen_machine rng p ~nframes)
  in
  let attacks =
    if not (Srng.chance rng p.attack_share 100) then []
    else
      List.init
        (Srng.range rng 1 2)
        (fun _ ->
          let after = Srng.int rng (max 1 (p.n_machines - 1)) in
          let kind =
            Srng.choose rng [| Flip_blob; Tamper_code; Truncate_image |]
          in
          (after, kind))
  in
  { p_idx = idx; p_nframes = nframes; p_machines = machines;
    p_attacks = attacks }

(* ------------------------------------------------------------------ *)
(* Acting store attacks out                                            *)
(* ------------------------------------------------------------------ *)

module Tstore = Cms_persist.Tstore
module Codec = Cms_persist.Codec

(* Deterministically pick a live key, if any. *)
let pick_key rng (store : Tstore.t) =
  let keys =
    Tstore.locked store (fun () ->
        Hashtbl.fold (fun k _ acc -> k :: acc) store.Tstore.entries [])
    |> List.sort compare
  in
  match keys with
  | [] -> None
  | ks -> Some (List.nth ks (Srng.int rng (List.length ks)))

(** Corrupt one byte of [key]'s blob in place, leaving the recorded MD5
    alone — the consumer-side digest check must catch it. *)
let flip_blob rng (store : Tstore.t) k =
  Tstore.locked store (fun () ->
      match Hashtbl.find_opt store.Tstore.entries k with
      | None -> false
      | Some e ->
          let b = Bytes.of_string e.Tstore.blob in
          let i = Srng.int rng (Bytes.length b) in
          let bit = 1 lsl Srng.int rng 8 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
          Hashtbl.replace store.Tstore.entries k
            { e with Tstore.blob = Bytes.to_string b };
          true)

(* Mutations whose verifier rule is independent of the consumer's
   (possibly chaos-scrambled) capacities — a tampered entry must be
   rejected under *every* engine configuration, never executed. *)
let tamper_mutations =
  [
    Cms_analysis.Mutate.Clobber_guest;
    Cms_analysis.Mutate.Drop_commit;
    Cms_analysis.Mutate.Unallocated_vreg;
  ]

(** Corrupt [key]'s molecule body with a real verifier-invariant
    violation (a clobbered guest register, a dropped commit, a leaked
    virtual register) and re-serialize *consistently* (fresh MD5): the
    source-byte digest still matches, so only the mandatory molecule
    verifier stands between this and the consumer. *)
let tamper_code (store : Tstore.t) k =
  Tstore.locked store (fun () ->
      match Hashtbl.find_opt store.Tstore.entries k with
      | None -> false
      | Some e -> (
          match Codec.decode Tstore.tran e.Tstore.blob with
          | exception Codec.Corrupt _ -> false
          | t -> (
              let mutated =
                List.find_map
                  (fun m ->
                    Cms_analysis.Mutate.apply ~cfg:Cms.Config.default
                      t.Tstore.code m)
                  tamper_mutations
              in
              match mutated with
              | None -> false
              | Some code ->
                  let blob = Tstore.blob { t with Tstore.code } in
                  Hashtbl.replace store.Tstore.entries k
                    { Tstore.blob; sum = Digest.string blob };
                  true)))

type attack_result =
  | Applied of string  (** what the attack did; the campaign logs it *)
  | Nothing  (** nothing to bite (empty store) *)
  | Torn_accepted
      (** a truncated image decoded successfully — a codec finding;
          the campaign fails the case *)

(** Act [attack] out against [store].

    [Truncate_image] round-trips the store through a truncated image
    and *requires* the codec to reject it; the caller degrades the
    next consumer to its private translator. *)
let apply rng (store : Tstore.t) attack =
  match attack with
  | Flip_blob -> (
      match pick_key rng store with
      | None -> Nothing
      | Some k ->
          if flip_blob rng store k then Applied ("flip-blob " ^ k) else Nothing)
  | Tamper_code -> (
      match pick_key rng store with
      | None -> Nothing
      | Some k ->
          if tamper_code store k then Applied ("tamper-code " ^ k) else Nothing)
  | Truncate_image -> (
      let image = Tstore.to_string store in
      let n = String.length image in
      if n < 2 then Nothing
      else
        let cut = 1 + Srng.int rng (n - 1) in
        match Tstore.of_string (String.sub image 0 cut) with
        | _ -> Torn_accepted
        | exception Codec.Corrupt _ ->
            Applied (Printf.sprintf "truncate-image rejected at %d/%d" cut n))
