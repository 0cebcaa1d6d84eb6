type t = string

let make name =
  if String.length name = 0 then invalid_arg "Variable.make: empty name";
  name

let name v = v
let compare = String.compare
let equal = String.equal
let pp = Fmt.string

(* Atomic so refreshing tgds is safe from concurrent domains. *)
let fresh_counter = Atomic.make 0

let fresh ?(prefix = "v") () =
  Printf.sprintf "%s#%d" prefix (1 + Atomic.fetch_and_add fresh_counter 1)

let indexed p i = p ^ string_of_int i

module Set = Set.Make (String)
module Map = Map.Make (String)
