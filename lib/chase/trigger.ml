open Tgd_syntax
open Tgd_instance

type t = { tgd : Tgd.t; hom : Binding.t }

let all tgd inst =
  Hom.all_homs (Tgd.body tgd) inst |> Seq.map (fun hom -> { tgd; hom })

let is_active tr inst =
  let partial = Binding.restrict (Tgd.frontier tr.tgd) tr.hom in
  not (Hom.exists_hom ~partial (Tgd.head tr.tgd) inst)

let active tgd inst = Seq.filter (fun tr -> is_active tr inst) (all tgd inst)

let key tr =
  let h = Binding.restrict (Tgd.universal_vars tr.tgd) tr.hom in
  Fmt.str "%a|%a" Tgd.pp tr.tgd Binding.pp h
