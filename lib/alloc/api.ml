type t = {
  alloc : aligned:bool -> size:int -> int;
  dealloc : int -> unit;
}

let of_durable d =
  {
    (* Constant [Some true] / absent: passing [~aligned] through would box
       a fresh option per allocation. *)
    alloc =
      (fun ~aligned ~size ->
        if aligned then Durable.alloc ~aligned:true d ~size
        else Durable.alloc d ~size);
    dealloc = Durable.dealloc d;
  }

let of_transient tr =
  {
    alloc =
      (fun ~aligned ~size ->
        if aligned then Transient.alloc ~aligned:true tr ~size
        else Transient.alloc tr ~size);
    dealloc = Transient.dealloc tr;
  }
