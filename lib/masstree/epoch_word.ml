let[@inline] epoch ~hi ~lo = ((hi land 0x3fff_ffff) lsl 32) lor lo
let[@inline] ins_allowed ~hi = hi land 0x4000_0000 <> 0
let[@inline] logged ~hi = hi land 0x8000_0000 <> 0

let[@inline] hi ~epoch ~ins_allowed ~logged =
  (epoch lsr 32) land 0x3fff_ffff
  lor (if ins_allowed then 0x4000_0000 else 0)
  lor if logged then 0x8000_0000 else 0

let[@inline] lo ~epoch = epoch land 0xffff_ffff
