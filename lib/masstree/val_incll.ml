let invalid_idx = 15

let[@inline] idx ~lo = lo land 0xf
let[@inline] ptr ~hi ~lo = ((hi land 0xffff) lsl 32) lor (lo land 0xffff_fff0)
let[@inline] low_epoch ~hi = hi lsr 16

let[@inline] hi ~ptr ~low_epoch =
  ((low_epoch land 0xffff) lsl 16) lor ((ptr lsr 32) land 0xffff)

let[@inline] lo ~ptr ~idx =
  if ptr land 15 <> 0 then invalid_arg "Val_incll: unaligned pointer";
  if idx < 0 || idx > 15 then invalid_arg "Val_incll: bad idx";
  (ptr land 0xffff_fff0) lor idx
