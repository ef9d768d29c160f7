(** Deterministic chaos-soak engine: one parameterised runner for every
    topology the recovery contract must hold on.

    A {!scenario} names a {e topology} (the single-process kernel, or a
    deployment of TCs, partitioned DCs, standbys, layers and indexes),
    the transaction {e mix} its one generator draws from, the set of
    fault plans it sweeps, and its {e hooks}: the maintenance run before
    each workload iteration (a midpoint checkpoint; detach → checkpoint
    → promote; fork-then-compact; a TC kill under load; scripted kills
    between transactions) and the audit checks beyond the oracle audit.
    One {e cycle} ({!run_cycle}) builds a fresh system from the seed,
    runs the generated workload against a shadow-map oracle while a
    fault plan is armed, translates every injected fault into a hard
    kill of the component it escaped from (a kill at the shipped-batch
    boundary into a standby promotion), quiesces through the resend
    path, and hands the survivor to {!Audit}.  {!soak} sweeps a
    scenario's plans across seeds.

    The generator is differential as it goes: a read-modify-write's
    read must return the oracle's value, a {e poison probe} (a duplicate
    insert or an update of an absent key) must fail exactly where the
    TC contract says — at the call on a fail-fast table, at commit on a
    pipelined one — and between transactions range scans and index
    lookups are compared with the oracle's rows.  With an empty plan
    every kill is scripted between transactions, so any refused
    operation is a violation too.

    Everything — workload, configuration, transport policy, fault plan,
    crash instant — is a pure function of the scenario, the seed and the
    plan, so any violation is reproducible by rerunning the cycle with
    the same arguments.

    A commit interrupted by a crash is ambiguous (the Commit record may
    or may not have reached the stable log).  Every transaction's first
    write is a unique marker key; after a TC crash the engine probes the
    marker to learn the transaction's fate and updates the oracle
    accordingly — exactly the "did my transaction commit?" probe an
    application would issue. *)

type cycle = {
  c_scenario : string;  (** the {!scenario}'s name *)
  c_label : string;  (** human-readable plan description *)
  c_seed : int;
  c_fired : string list;  (** fault points that fired, in firing order *)
  c_crashes : int;  (** injected hard kills (incl. during recovery) *)
  c_committed : int;  (** transactions the oracle counts as committed *)
  c_redelivered : int;  (** stable ops re-delivered by the audit *)
  c_checks : (string * int) list;
      (** differential checks run, by kind ({!check_kinds}), sorted *)
  c_violations : string list;
  c_counters : (string * int) list;  (** Instrument snapshot *)
  c_trace : string;
      (** the cycle's span dump ({!Untx_obs.Trace.to_jsonl}), captured
          whenever the audit reports violations — the verdict comes with
          the per-operation timelines that led to it — or when the
          caller asked with [keep_trace].  Empty otherwise.  Feed it to
          {!Untx_obs.Analyzer.of_jsonl}. *)
}

(** A deployment ({!Untx_cloud.Deploy}) with the kernel's small pages
    and tiny cache on every DC. *)
type shape = {
  tcs : int;
      (** with several, TC [i] updates the mix's table [i] through the
          session front end ({!Untx_front.Front}) *)
  parts : int;  (** hash-partitioned DCs *)
  replicas : int;  (** warm standbys per partition *)
  durability : Untx_repl.Repl.durability option;
      (** [None] alternates [Quorum 1] / [Primary_only] by seed *)
  layers : bool;  (** layered log store, which copy-on-write branches need *)
  indexes : bool;
      (** two secondary indexes (["by_cat"]: the value's prefix up to
          ':', ["by_len"]: 16-byte length buckets), every mutation
          through {!Untx_index.Index}; values carry a category prefix,
          occasionally NUL-embedded *)
}

type topology =
  | Kernel  (** one TC and one DC in a process ({!Untx_kernel.Kernel}) *)
  | Deploy of shape

(** What the generator draws: a transaction writes a marker, then 1 to
    [ops] oracle-guided writes on one table (the tables take turns),
    then a poison probe, a deliberate abort or a commit.  A probability
    of 0 draws nothing from the seed's stream. *)
type mix = {
  tables : (string * bool option) list;
      (** (table, versioned); [None] by seed (never on a layered store) *)
  protocol : Untx_tc.Tc.cc_protocol option;
      (** [None]: key locks; both Section 3.1 protocols by seed if indexed *)
  keys : int;  (** key-space size *)
  theta : float;  (** Zipfian skew of key picks; [0.] = uniform *)
  ops : int;  (** most writes per transaction *)
  value_len : (int * int) option;
      (** random payloads of that length range, pages sized to hold
          them; [None]: ["v%06d"] on 160-byte pages *)
  rmw : float;  (** chance an update is a read-modify-write *)
  poison : float;  (** chance a transaction ends in a poison probe *)
  abort : float;  (** chance a transaction aborts deliberately *)
  scan : float;  (** chance of a range scan after a transaction *)
  lookup : float;  (** chance of an index lookup after a transaction *)
}

type hooks

type scenario = {
  name : string;
  topology : topology;
  base_seed : int;  (** {!soak}'s first seed *)
  txns : int;  (** {!soak}'s transactions per cycle *)
  mix : mix;
  plans : (string * Untx_fault.Fault.rule list) list;  (** label, plan *)
  hooks : hooks;
}

val kernel : scenario
(** The single kernel under the standard sweep: every registered crash
    point at several Nth-hit positions, double-failure plans that also
    crash during recovery (["tc.recover.mid"]), transient-I/O-error
    plans, and a corrupting wire alone and under crashes.  A midpoint
    checkpoint sits on a realistic RSSP advance; late in the cycle
    deletes dominate, to drive pages toward consolidation.  The mix is
    1-4 writes over 50 keys, nothing else. *)

val partitioned : scenario
(** One TC over three partitioned DCs.  An injected DC fault kills the
    partition it escaped from, which recovers alone while its siblings
    keep serving; the audit is {!Audit.run_deploy} (per-partition
    structure and hygiene, routed idempotence, merged oracle).  Plans
    kill mid-SMO, mid-checkpoint-grant, mid-flush and mid-WAL-force, at
    both commit-force edges (redo fan-out), two partitions in one cycle,
    and mid-SMO under a corrupting wire. *)

val replicated : scenario
(** {!partitioned} over two DCs with two warm standbys each.  A kill at
    the ["repl.ship.batch"] boundary is answered with
    {!Untx_cloud.Deploy.fail_over} — promote the most-caught-up eligible
    standby and re-drive only the gap; if the gate refuses every
    candidate the harness cold-restarts the primary.  DC faults that
    fire inside a standby's apply crash the standby, which rejoins.
    Plans sweep the primary kill across batch boundaries, promote twice
    in one cycle, and pair a promotion with cold DC and TC kills. *)

val detach : scenario
(** The detach → checkpoint → promote interleaving over two DCs with one
    standby each: dc0's standby detaches a quarter into the workload, a
    granted checkpoint at the midpoint advances the redo-scan start past
    its frozen cursor (burning its retention lease), and at the
    three-quarter mark dc0 fails over to that laggard — which must be
    caught up from the retained log, or refused and cold-restarted;
    never served with a hole.  Plans: the pure interleaving, a forced
    ["repl.lease.expire"] (the refusal path), and primary-kill, TC-kill
    and WAL-force combos around it. *)

val mtc : scenario
(** TC-kill-under-load: two TCs share two DCs behind the session front
    end, with bounded queues and seed-sized group-commit batches.  At
    the midpoint one TC (picked by seed) is hard-killed while queues are
    non-empty; the survivor must sail through and the victim's recovery
    reset exactly its own lost suffix.  Acknowledged commits may have
    ridden unforced batches into the kill, so the oracle is settled by
    probing every committed marker after the final drain; the audit runs
    once per TC, including the cross-TC watermark check.  Plans: the
    kill alone, and under 5% frame corruption. *)

val indexed : scenario
(** {!partitioned} over two DCs on a table with two secondary indexes.
    A kill can land between a primary write and its entry maintenance;
    any index op answering non-[`Ok] aborts the whole transaction.  The
    audit adds {!Audit.check_index}. *)

val branch : scenario
(** Fork-under-load on a layered two-DC deployment: a third into the
    workload a copy-on-write branch forks at the stable LSN and every
    later iteration drives one parent and one branch transaction; at
    two thirds the parent compacts and truncates history (the cut must
    clamp at the fork pin) and the branch DC is killed.  DC points that
    escaped the branch crash the branch DC, TC points crash-recover the
    branch's TC.  The audit adds {!Audit.check_branch} and two oracle
    laws: the branch's durable state is exactly its own shadow map, and
    the fork prefix reads back as the parent's oracle stood at the
    fork. *)

val bank : scenario list
(** The differential bank: nine adversarial mixes ([zipfian_rmw],
    [range_scan_keylocks], [range_scan_rangelocks], [occ_uniform],
    [large_values], [mixed_tables], [indexed_zipf],
    [indexed_unversioned], [branched_pitr] — the last forks at 0.4 of
    the run and takes {!branch}'s parity audit), each under one empty
    plan with 1-2 kills of a DC, the TC or the branch DC scripted evenly
    between transactions. *)

val scenarios : scenario list
(** All of the above, in that order. *)

val check_kinds : scenario -> string list
(** The differential check kinds the scenario's mix enables, sorted:
    ["branch txn"] (on a layered deployment), ["lookup"], ["poison"],
    ["rmw read"], ["scan"]. *)

val run_cycle :
  ?keep_trace:bool ->
  scenario ->
  label:string ->
  plan:Untx_fault.Fault.rule list ->
  seed:int ->
  txns:int ->
  cycle
(** Run one workload→crash→recover→audit cycle of the scenario.  The
    cycle always runs with tracing on (the ring is cleared first, so
    trace ids and span dumps are deterministic per cycle); [keep_trace]
    (default false) retains the dump in [c_trace] even for a clean
    cycle. *)

type summary = {
  s_cycles : int;
  s_fired : int;  (** cycles in which at least one rule fired *)
  s_crashes : int;
  s_violating : cycle list;
  s_fires_by_point : (string * int) list;
  s_checks : (string * int) list;  (** summed across cycles, by kind *)
  s_counters : (string * int) list;  (** summed across cycles *)
}

val summarize : cycle list -> summary

val soak : seeds_per_plan:int -> scenario -> cycle list * summary
(** Run every plan of the scenario at [seeds_per_plan] seeds (plan [p],
    seed [s]: [base_seed + 131p + 17s]), [txns] transactions per
    cycle. *)

val armed_points : scenario -> string list
(** The distinct fault points the scenario's plans arm, sorted. *)
