(** Per-figure reproduction drivers.

    Two sweeps feed every figure: the Section IV sweep (Exp-A, three
    buffer configurations) feeds Figs. 2-8; the Section V sweep (Exp-B,
    packet- vs flow-granularity) feeds Figs. 9-13. [run_all] executes
    both once and prints every figure as a rate-indexed table plus the
    paper's headline aggregate claims. *)

type exp_a_data = {
  no_buffer : Sweep.series;
  buffer_16 : Sweep.series;
  buffer_256 : Sweep.series;
}

type exp_b_data = { packet_gran : Sweep.series; flow_gran : Sweep.series }

val run_exp_a :
  ?rates:float list -> ?reps:int -> ?jobs:int -> unit -> exp_a_data
(** [jobs] (default 1) is handed to each {!Sweep.run}; by the
    {!Exec.run} contract it never changes the data. *)

val run_exp_b :
  ?rates:float list -> ?reps:int -> ?jobs:int -> unit -> exp_b_data

(** Each figure function prints its table from pre-computed sweep
    data. *)

val fig2a : exp_a_data -> unit
val fig2b : exp_a_data -> unit
val fig3 : exp_a_data -> unit
val fig4 : exp_a_data -> unit
val fig5 : exp_a_data -> unit
val fig6 : exp_a_data -> unit
val fig7 : exp_a_data -> unit
val fig8 : exp_a_data -> unit
val fig9a : exp_b_data -> unit
val fig9b : exp_b_data -> unit
val fig10 : exp_b_data -> unit
val fig11 : exp_b_data -> unit
val fig12a : exp_b_data -> unit
val fig12b : exp_b_data -> unit
val fig13a : exp_b_data -> unit
val fig13b : exp_b_data -> unit

val summary_exp_a : exp_a_data -> unit
(** The Section IV headline numbers: average reductions in control
    load (both directions), controller overhead, delays; average switch
    overhead increase. Printed next to the paper's reported values. *)

val summary_exp_b : exp_b_data -> unit

val exp_a_figures : (string * (exp_a_data -> unit)) list
val exp_b_figures : (string * (exp_b_data -> unit)) list

val run_all : ?rates:float list -> ?reps:int -> ?jobs:int -> unit -> unit

val export_csv : dir:string -> exp_a_data -> exp_b_data -> unit
(** Write one CSV per figure (rate, then mean and sd per series) into
    [dir], which is created if missing. File names are [fig2a.csv] ..
    [fig13b.csv]. *)
