(** Structured diagnostics for the translation verifier.

    Every violation carries the region entry address, the pipeline
    stage it was found at, the molecule index (for scheduled code), a
    stable rule id, and a human-readable explanation.  Rule ids are the
    contract between the passes, the seeded-mutation self-tests and the
    [cmsverify] reporting table — never rename one without updating all
    three. *)

type t = {
  rule : string;  (** stable rule id, one of {!rules} *)
  entry : int;  (** region entry address (guest EIP) *)
  stage : string;  (** ["lower"], ["opt"] (IR lint) or ["code"] *)
  molecule : int option;  (** molecule index, for scheduled-code rules *)
  msg : string;
}

let v ~rule ~entry ~stage ?molecule msg = { rule; entry; stage; molecule; msg }

let pp fmt d =
  Fmt.pf fmt "0x%x/%s%a [%s] %s" d.entry d.stage
    Fmt.(option (any "@m" ++ int))
    d.molecule d.rule d.msg

let to_string d = Fmt.str "%a" pp d

(* --- JSON rendering (hand-rolled; no JSON library in the image) --- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json d =
  Printf.sprintf
    "{\"rule\":\"%s\",\"entry\":\"0x%x\",\"stage\":\"%s\",\"molecule\":%s,\"msg\":\"%s\"}"
    (json_escape d.rule) d.entry (json_escape d.stage)
    (match d.molecule with Some m -> string_of_int m | None -> "null")
    (json_escape d.msg)

(** The full rule set: id, what it checks, and the paper section the
    invariant comes from.  [cmsverify] prints a row per rule (including
    zero-violation rows) so a sweep documents its own coverage. *)
let rules =
  [
    ("ir-vreg-undef", "virtual register used before any definition", "IR");
    ("ir-memseq", "memory-op sequence numbers monotone in program order", "§3.5");
    ("ir-backedge-barrier", "loop back-edges carry a barrier or follow a commit", "§3.2");
    ("ir-label", "labels unique, branch targets and exit indices defined", "IR");
    ("ir-exit-eip", "every exit stub commits an EIP update", "§3.1");
    ("issue-constraints", "molecule respects functional-unit issue limits", "§2");
    ("latency", "results read only after their operation latency", "§2");
    ("branch-target", "branch/exit targets inside the code block", "IR");
    ("exit-uncommitted", "no exit with uncommitted stores or guest state", "§3.1");
    ("commit-retired", "commit/exit retired-instruction counts in range", "§3.1");
    ("barrier-hoist", "no atom placed after a loop back-edge branch", "§3.2");
    ("guest-clobber", "loads never target live guest-state registers", "§3.1");
    ("regalloc-range", "every register inside [0, num_regs)", "§2");
    ("tmp-undef", "host temporaries defined before use", "§2");
    ("sbuf-overflow", "gated stores between commits fit the store buffer", "§3.1");
    ("alias-slot-range", "alias protect/check slots within hardware range", "§3.5");
    ("alias-double-arm", "no alias slot armed twice without a commit", "§3.5");
    ("store-missing-check", "stores check every live guarded range", "§3.6.3");
    ("spec-missing", "alias-protected loads are marked speculative", "§3.4");
  ]

(** Rules that flag a predictable, *recoverable* runtime event rather
    than a broken translation.  A region with more straight-line stores
    than the gated buffer holds is legitimate output: the hardware
    faults cleanly mid-execution, the engine rolls back, replays in the
    interpreter and escalates the policy to smaller regions (§3.1) —
    that adaptive path is part of the design, so the rejecting verifier
    must not preempt it.  Sweeps and the mutation self-tests still
    report these. *)
let advisory = [ "sbuf-overflow" ]

let is_advisory d = List.mem d.rule advisory
