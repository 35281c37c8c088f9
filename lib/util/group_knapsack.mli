(** The one-option-per-group knapsack over gcd-scaled area cells, shared
    by the Chapter 6 spatial selection (thesis Algorithm 7) and the
    Chapter 7 utilisation knapsack.

    Every group picks exactly one option; option [j] of group [g] costs
    [costs.(g).(j)] cells and adds [values.(g).(j)].  Option 0 is the
    default: it costs nothing and adds nothing, and its entries are not
    read.  The answer maximises the value sum with the cost sum at most
    [capacity].

    The DP pulls: cell [c] of a group's row starts from the previous
    row's cell [c] (option 0) and takes option [j > 0] only on a
    strictly greater [prev.(c - cost) +. value], so the lowest option
    index wins every tie.  Two value rows swap after each group and a
    parent table of 2 bytes per cell per group records the choices, so
    no row is copied and nothing is allocated per cell.  Integer values
    are exact as floats up to 2{^53}, so an integer objective gets the
    same answer and ties as an integer DP. *)

val solve :
  capacity:int -> costs:int array array -> values:float array array -> int array
(** The chosen option index per group, traced back from the full
    [capacity].  Raises [Invalid_argument] on a negative capacity or
    cost, rows of unequal length, or a group of more than 65 535
    options (the parent table stores 16-bit indices). *)
