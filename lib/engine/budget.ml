type exhaustion =
  | Rounds
  | Facts
  | Fuel
  | Deadline
  | Memory
  | Cancelled
  | Fault of string

let exhaustion_to_string = function
  | Rounds -> "rounds"
  | Facts -> "facts"
  | Fuel -> "fuel"
  | Deadline -> "deadline"
  | Memory -> "memory"
  | Cancelled -> "cancelled"
  | Fault site -> "fault:" ^ site

let pp_exhaustion ppf r = Fmt.string ppf (exhaustion_to_string r)

module Cancel = struct
  (* Write-once: the first cancellation's reason sticks, so every holder
     reports the same cause no matter how many workers trip concurrently. *)
  type t = exhaustion option Atomic.t

  let create () : t = Atomic.make None

  let cancel ?(reason = Cancelled) (t : t) =
    ignore (Atomic.compare_and_set t None (Some reason))

  let reason (t : t) = Atomic.get t
  let is_cancelled (t : t) = reason t <> None
end

type t = {
  max_rounds : int;
  max_facts : int;
  fuel : int Atomic.t option;
  deadline : float option;
  max_memory_words : int option;
  cancel : Cancel.t;
}

(* The clock deadlines are measured against: [Unix.gettimeofday], the best
   the stdlib offers without external deps; steps backwards only delay a
   trip, never corrupt it. *)
let now () = Unix.gettimeofday ()

let make ?(rounds = 64) ?(facts = 20_000) ?fuel ?timeout_s ?memory_words
    ?cancel () =
  { max_rounds = rounds;
    max_facts = facts;
    fuel = Option.map Atomic.make fuel;
    deadline = Option.map (fun s -> now () +. s) timeout_s;
    max_memory_words = memory_words;
    cancel = (match cancel with Some c -> c | None -> Cancel.create ())
  }

let limits ~rounds ~facts = make ~rounds ~facts ()
let default = limits ~rounds:64 ~facts:20_000
let unlimited = limits ~rounds:max_int ~facts:max_int
let with_rounds b rounds = { b with max_rounds = rounds }
let token b = b.cancel

let trip b reason =
  Cancel.cancel ~reason b.cancel;
  Some reason

let check b =
  match Cancel.reason b.cancel with
  | Some _ as r -> r
  | None -> (
    match b.deadline with
    | Some d when now () > d -> trip b Deadline
    | _ -> (
      match b.max_memory_words with
      | Some w when (Gc.quick_stat ()).Gc.heap_words > w -> trip b Memory
      | _ -> (
        match b.fuel with
        | Some f when Atomic.get f <= 0 -> trip b Fuel
        | _ -> None)))

let cancelled b = Cancel.reason b.cancel

let spend_fuel b n =
  match b.fuel with
  | None -> None
  | Some f -> if Atomic.fetch_and_add f (-n) - n < 0 then trip b Fuel else None

let key b = Fmt.str "r%d/f%d" b.max_rounds b.max_facts

type 'a outcome =
  | Complete of 'a
  | Truncated of {
      reason : exhaustion;
      partial : 'a;
      progress : Stats.t;
    }

let value = function Complete v -> v | Truncated { partial; _ } -> partial

let map f = function
  | Complete v -> Complete (f v)
  | Truncated { reason; partial; progress } ->
    Truncated { reason; partial = f partial; progress }
