(** Shared context of the durability hooks and the recovery procedures:
    the region, the epoch manager, the external log and the InCLL event
    counters (Figure 7 reports the logging behaviour these record). *)

type counters = {
  mutable first_touches : int;
      (** Leaf first-modifications per epoch that were absorbed by InCLLp
          (no external log, no fence). *)
  mutable val_incll_uses : int;
      (** Value updates absorbed by an in-line value InCLL. *)
  mutable val_incll_hits : int;
      (** Same-epoch re-updates of an already-logged slot (free). *)
  mutable ext_fallback_mixed : int;
      (** Nodes externally logged because a delete was followed by an
          insert in the same epoch (§4.1.1). *)
  mutable ext_fallback_update : int;
      (** Nodes externally logged because both value InCLLs of a line were
          needed (§4.1.3). *)
  mutable ext_fallback_epoch : int;
      (** Nodes externally logged because 16 bits could not encode the
          epoch distance (§4.1.3; about once an hour in the paper). *)
  mutable ext_structural : int;
      (** Nodes externally logged for splits / root changes (§4.2). *)
  mutable lazy_recoveries : int;  (** Lazy node recoveries performed. *)
}

type t = {
  region : Nvm.Region.t;
  em : Epoch.Manager.t;
  log : Extlog.Log.t;
  counters : counters;
  m_incll_hit : int ref;
      (** Registry counter ["incll_hit"]: modifications absorbed in-line
          (first touches + value-InCLL uses and hits). *)
  m_incll_fallback : int ref;
      (** Registry counter ["incll_fallback"]: modifications that went to
          the external log (Figure 7's logged-node count). *)
  m_first_touch : int ref;  (** Registry counter ["incll_first_touch"]. *)
}

val make : Epoch.Manager.t -> Extlog.Log.t -> t

(** Figure-7 accounting, mirrored into the region's metric registry (the
    hooks call these next to their own [counters] increments). *)

val note_incll_hit : t -> unit
val note_first_touch : t -> leaf:int -> unit
val note_fallback : t -> leaf:int -> unit

val log_node : t -> addr:int -> size:int -> unit
(** Append to the external log; on a full log, force a checkpoint (which
    truncates it) and retry, so the append always lands in the epoch that
    is current when it returns. *)

val current : t -> int
val lower16 : int -> int
val higher : int -> int
