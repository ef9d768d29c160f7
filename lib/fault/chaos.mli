(** Deterministic chaos-soak engine: one parameterised runner for every
    topology the recovery contract must hold on.

    A {!scenario} names a {e topology} (the single-process kernel, or a
    deployment of TCs, partitioned DCs, standbys, layers and indexes),
    the set of fault plans it sweeps, and its {e hooks}: the maintenance
    run before each workload iteration (a midpoint checkpoint; detach →
    checkpoint → promote; fork-then-compact; a TC kill under load) and
    the audit checks beyond the oracle audit.  One {e cycle}
    ({!run_cycle}) builds a fresh system from the seed, runs a
    randomized transactional workload against a shadow-map oracle while
    a fault plan is armed, translates every injected fault into a hard
    kill of the component it escaped from (a kill at the shipped-batch
    boundary into a standby promotion), quiesces through the resend
    path, and hands the survivor to {!Audit}.  {!soak} sweeps a
    scenario's plans across seeds.

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
      (** with one TC the table is ["kv"]; with several, each TC updates
          its own table through the session front end ({!Untx_front.Front}) *)
  parts : int;  (** hash-partitioned DCs *)
  replicas : int;  (** warm standbys per partition *)
  durability : Untx_repl.Repl.durability option;
      (** [None] alternates [Quorum 1] / [Primary_only] by seed *)
  layers : bool;  (** layered log store (unversioned table) *)
  indexes : bool;
      (** two secondary indexes, every mutation through
          {!Untx_index.Index}, the lock protocol picked by seed *)
}

type topology =
  | Kernel  (** one TC and one DC in a process ({!Untx_kernel.Kernel}) *)
  | Deploy of shape
  | Bank
      (** the workload bank ({!Untx_workload.Workload.bank}): each plan
          label names a spec, which builds its own deployment *)

type hooks

type scenario = {
  name : string;
  topology : topology;
  base_seed : int;  (** {!soak}'s first seed *)
  plans : (string * Untx_fault.Fault.rule list) list;  (** label, plan *)
  hooks : hooks;
}

val kernel : scenario
(** The single kernel under the standard sweep: every registered crash
    point at several Nth-hit positions, double-failure plans that also
    crash during recovery (["tc.recover.mid"]), transient-I/O-error
    plans, and a corrupting wire alone and under crashes.  A midpoint
    checkpoint sits on a realistic RSSP advance; late in the cycle
    deletes dominate, to drive pages toward consolidation. *)

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
(** {!partitioned} over two DCs on a table with two secondary indexes
    (categories from the value, occasionally NUL-embedded; length
    buckets).  A kill can land between a primary write and its entry
    maintenance; any index op answering non-[`Ok] aborts the whole
    transaction.  The audit adds {!Audit.check_index}. *)

val branch : scenario
(** Fork-under-load on a layered two-DC deployment: a third into the
    workload a copy-on-write branch forks at the stable LSN and every
    later iteration drives one parent and one branch transaction; at
    two thirds the parent compacts and truncates history (the cut must
    clamp at the fork pin) and the branch DC is killed.  DC points that
    escaped the branch crash the branch DC, TC points crash-recover the
    branch's TC.  The audit adds {!Audit.check_branch} and two oracle
    laws: the branch tracks its own shadow map, and the fork prefix
    reads back as the parent's oracle stood at the fork. *)

val bank : scenario
(** Every workload-bank spec as a cycle: {!Untx_workload.Workload.run}
    executes the spec differentially against its oracle (scripted DC/TC
    kills included), then the surviving deployment takes
    {!Audit.run_deploy} per table and — for index-maintaining specs —
    {!Audit.check_index}.  The plans arm nothing and the cycle's [txns]
    is unused (each spec fixes its own length). *)

val scenarios : scenario list
(** All of the above, in that order. *)

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
  s_counters : (string * int) list;  (** summed across cycles *)
}

val soak : seeds_per_plan:int -> scenario -> cycle list * summary
(** Run every plan of the scenario at [seeds_per_plan] seeds (plan [p],
    seed [s]: [base_seed + 131p + 17s]), 24 transactions per cycle. *)

val armed_points : scenario -> string list
(** The distinct fault points the scenario's plans arm, sorted. *)
