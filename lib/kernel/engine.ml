(** The engine abstraction the workload driver runs against.

    Both the unbundled kernel and the monolithic baseline expose this
    surface, so every experiment compares them on identical workloads. *)

type 'a outcome = [ `Ok of 'a | `Blocked | `Fail of string ]

module type S = sig
  type txn

  val begin_txn : unit -> txn

  val xid : txn -> int

  val is_active : txn -> bool

  val read : txn -> table:string -> key:string -> string option outcome

  val insert : txn -> table:string -> key:string -> value:string -> unit outcome

  val update : txn -> table:string -> key:string -> value:string -> unit outcome

  val delete : txn -> table:string -> key:string -> unit outcome

  val scan :
    txn -> table:string -> from_key:string -> limit:int ->
    (string * string) list outcome

  val commit : txn -> unit outcome

  val abort : txn -> reason:string -> unit

  val wakeups : unit -> int list

  val resolve_deadlock : unit -> int option
end

(* A bare TC as an engine: how a deployment (one TC fronting N
   partitioned DCs) runs the standard workloads. *)
let of_tc (tc : Untx_tc.Tc.t) : (module S with type txn = Untx_tc.Tc.txn) =
  (module struct
    module Tc = Untx_tc.Tc

    type txn = Tc.txn

    let begin_txn () = Tc.begin_txn tc

    let xid = Tc.xid

    let is_active = Tc.is_active

    let read txn ~table ~key = Tc.read tc txn ~table ~key

    let insert txn ~table ~key ~value = Tc.insert tc txn ~table ~key ~value

    let update txn ~table ~key ~value = Tc.update tc txn ~table ~key ~value

    let delete txn ~table ~key = Tc.delete tc txn ~table ~key

    let scan txn ~table ~from_key ~limit = Tc.scan tc txn ~table ~from_key ~limit

    let commit txn = Tc.commit tc txn

    let abort txn ~reason = Tc.abort tc txn ~reason

    let wakeups () = Tc.wakeups tc

    let resolve_deadlock () = Tc.resolve_deadlock tc
  end)

(* The kernel's TC, except that its commit drives the kernel's
   auto-checkpoints. *)
let of_kernel (k : Kernel.t) : (module S) =
  (module struct
    include (val of_tc (Kernel.tc k))

    let commit txn = Kernel.commit k txn
  end)
