(** Structured experiment output.

    Experiment drivers used to print straight to a formatter; they now
    accumulate into a {!t} builder and the registry packages the run as
    a {!result} — rows plus labelled sub-step timings plus total wall
    time — which callers can render as text ({!render}) or assert on
    directly in tests. *)

type result = {
  banner : (string * string) option;
      (** printed heading, e.g. [("Table 3.1", "composition of task sets")] *)
  rows : string list list;  (** table rows; cells are pre-padded text *)
  timings : (string * float) list;
      (** labelled sub-step wall times recorded with {!timed_into} *)
  elapsed : float;  (** total wall-clock seconds of the run *)
  status : string;
      (** ["exact"] when every solver ran to completion; ["partial"] when
          a resource guard (deadline / fuel / injected fault) stopped one
          early, detected via the ["guard.exhausted"] telemetry delta *)
}

type t
(** Mutable builder handed to each experiment driver. *)

val create : unit -> t

val banner : t -> id:string -> string -> unit
(** Set the experiment heading, e.g.
    [banner t ~id:"f3.3" "utilization vs area"]. *)

val row : t -> string list -> unit
(** Append one table row, columns separated by two spaces when rendered
    (caller pre-pads). *)

val timing : t -> string -> float -> unit
(** Record a labelled sub-step wall time. *)

val result : ?elapsed:float -> ?status:string -> t -> result
val collect : (t -> unit) -> result
(** Run a driver against a fresh builder and package the result,
    measuring [elapsed] and deriving [status] from the guard-exhaustion
    telemetry delta across the run. *)

val render : Format.formatter -> result -> unit
(** The classic text rendering (banner line, then rows). *)

val cell : ?width:int -> string -> string
(** Right-pad to a column width (default 12). *)

val cellr : ?width:int -> string -> string
(** Left-pad (right-align) to a column width (default 12). *)

val timed : (unit -> 'a) -> 'a * float
(** Result and elapsed wall-clock seconds. *)

val timed_into : t -> string -> (unit -> 'a) -> 'a * float
(** {!timed}, also recording the measurement into the result's
    [timings]. *)

val pct : float -> string
(** Format a percentage with one decimal. *)
