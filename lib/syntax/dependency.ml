type t =
  | Tgd of Tgd.t
  | Egd of Egd.t

let tgd s = Tgd s
let egd e = Egd e
let as_tgd = function Tgd s -> Some s | Egd _ -> None
let as_egd = function Egd e -> Some e | Tgd _ -> None
let tgds l = List.filter_map as_tgd l
let egds l = List.filter_map as_egd l
