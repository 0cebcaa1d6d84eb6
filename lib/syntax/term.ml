type t =
  | Var of Variable.t
  | Const of Constant.t

let var v = Var v
let const c = Const c

let is_const = function Const _ -> true | Var _ -> false

let compare t u =
  match t, u with
  | Var v, Var w -> Variable.compare v w
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1
  | Const c, Const d -> Constant.compare c d

let pp ppf = function
  | Var v -> Variable.pp ppf v
  | Const c -> Constant.pp ppf c
