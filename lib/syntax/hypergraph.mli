(** Hypergraph acyclicity of conjunctions of atoms (GYO reduction).

    The body of a guarded tgd is an acyclic hypergraph (the guard is an ear
    covering everything), which is the structural reason guardedness buys
    decidability; this module makes the notion first-class: α-acyclicity via
    the classic Graham–Yu–Özsoyoğlu ear-removal procedure. *)

val is_acyclic : Atom.t list -> bool
(** α-acyclic: GYO reduction empties the hypergraph.  The empty conjunction
    and single atoms are acyclic. *)

val gyo_residual : Atom.t list -> Variable.Set.t list
(** The hyperedges (as variable sets) remaining after GYO reduction — empty
    iff acyclic; otherwise the cyclic core, useful in diagnostics. *)
