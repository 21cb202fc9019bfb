module Region = Nvm.Region

(* Field codec over a header word's unsigned 32-bit halves: [lo] holds
   ctr and the low 30 bits of ptr>>4, [hi] the high 14 bits of ptr>>4,
   the class bits and the epoch half. *)
let[@inline] ctr ~lo = lo land 3
let[@inline] ptr ~hi ~lo = ((lo lsr 2) lor ((hi land 0x3fff) lsl 30)) lsl 4
let[@inline] cls2 ~hi = (hi lsr 14) land 3
let[@inline] half ~hi = hi lsr 16

let[@inline] lo ~ptr ~ctr =
  if ptr land 15 <> 0 then invalid_arg "Chunk_header: unaligned pointer";
  (((ptr lsr 4) land 0x3fff_ffff) lsl 2) lor (ctr land 3)

let[@inline] hi ~ptr ~cls2 ~half =
  (ptr lsr 34) land 0x3fff lor ((cls2 land 3) lsl 14) lor ((half land 0xffff) lsl 16)

(* Every decode loads both words, word0 first — one charged read each —
   and keeps the four halves in locals. *)

let read_epoch region ~chunk =
  let lo0 = Region.read_u64 region chunk in
  let hi0 = Region.hi32 region in
  let lo1 = Region.read_u64 region (chunk + 8) in
  let hi1 = Region.hi32 region in
  if ctr ~lo:lo0 <> ctr ~lo:lo1 then -1
  else (half ~hi:hi0 lsl 16) lor half ~hi:hi1

let read_next region ~chunk =
  let lo0 = Region.read_u64 region chunk in
  let hi0 = Region.hi32 region in
  ignore (Region.read_u64 region (chunk + 8) : int);
  ptr ~hi:hi0 ~lo:lo0

let read_class region ~chunk =
  ignore (Region.read_u64 region chunk : int);
  let hi0 = Region.hi32 region in
  ignore (Region.read_u64 region (chunk + 8) : int);
  (cls2 ~hi:(Region.hi32 region) lsl 2) lor cls2 ~hi:hi0

let write_words region ~chunk ~next ~next_incll ~ctr ~epoch ~cls =
  (* word1 (the log copy) strictly before word0; same line => PCSO keeps
     this order on a crash. *)
  Region.write_u64 region (chunk + 8)
    ~hi:(hi ~ptr:next_incll ~cls2:(cls lsr 2) ~half:epoch)
    ~lo:(lo ~ptr:next_incll ~ctr);
  Region.write_u64 region chunk
    ~hi:(hi ~ptr:next ~cls2:cls ~half:(epoch lsr 16))
    ~lo:(lo ~ptr:next ~ctr);
  Region.release_fence region

(* word0's counter, from one more load of it. *)
let word0_ctr region ~chunk = ctr ~lo:(Region.read_u64 region chunk)

let first_touch region ~chunk ~epoch =
  let lo0 = Region.read_u64 region chunk in
  let hi0 = Region.hi32 region in
  ignore (Region.read_u64 region (chunk + 8) : int);
  let hi1 = Region.hi32 region in
  if (half ~hi:hi0 lsl 16) lor half ~hi:hi1 <> epoch then begin
    let ctr0 = word0_ctr region ~chunk in
    let next = ptr ~hi:hi0 ~lo:lo0 in
    write_words region ~chunk ~next ~next_incll:next
      ~ctr:((ctr0 + 1) land 3) ~epoch
      ~cls:((cls2 ~hi:hi1 lsl 2) lor cls2 ~hi:hi0)
  end

let write_next region ~chunk ~next =
  let lo0 = Region.read_u64 region chunk in
  let hi0 = Region.hi32 region in
  Region.write_u64 region chunk
    ~hi:(hi ~ptr:next ~cls2:(cls2 ~hi:hi0) ~half:(half ~hi:hi0))
    ~lo:(lo ~ptr:next ~ctr:(ctr ~lo:lo0))

let init region ~chunk ~epoch ~cls =
  write_words region ~chunk ~next:0 ~next_incll:0 ~ctr:0 ~epoch ~cls

let restore region ~chunk ~marker_epoch =
  ignore (Region.read_u64 region chunk : int);
  let hi0 = Region.hi32 region in
  let lo1 = Region.read_u64 region (chunk + 8) in
  let hi1 = Region.hi32 region in
  let ctr0 = word0_ctr region ~chunk in
  (* The new ctr must differ from word0's current one: [write_words] emits
     word1 first, so a crash that persists only word1 would otherwise leave
     the two ctrs equal by coincidence (old ctr0 = 0) while the decoded
     epoch is a chimera of word0's high half and word1's low half — a state
     that reads as committed but still carries the failed [next]. With
     ctr0+1 a torn restore is always a visible mismatch and simply re-runs. *)
  let next_incll = ptr ~hi:hi1 ~lo:lo1 in
  write_words region ~chunk ~next:next_incll ~next_incll
    ~ctr:((ctr0 + 1) land 3) ~epoch:marker_epoch
    ~cls:((cls2 ~hi:hi1 lsl 2) lor cls2 ~hi:hi0)
