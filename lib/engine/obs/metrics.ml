(* One process-global registry of labeled metric families.  Families
   are keyed by name; cells within a family by their canonically
   sorted label set.  Every access takes the single registry mutex —
   instrumented call sites touch it once per algorithm step, not per
   inner-loop iteration, so contention stays negligible (measured by
   the observability floor of `dune build @perf-gates`).  Writes never raise: a kind clash
   drops the sample and bumps [obs.kind_clash] instead, because
   instrumentation must not take down the instrumented code. *)

type labels = (string * string) list
type kind = Counter | Gauge | Hist

(* Histogram cells use the same geometric buckets the standalone
   Engine.Histogram introduced: ratio 2^(1/8), bucket [i] covering
   [2^((i-offset)/8), 2^((i-offset+1)/8)).  480 buckets span 2^-30 to
   2^30 — nanoseconds to decades in seconds, or counts up to ~1e9 —
   and anything outside clamps into the end buckets. *)
let sub_buckets = 8
let bucket_offset = 30 * sub_buckets
let n_buckets = 2 * bucket_offset

let bucket_of v =
  if v <= 0. then 0
  else
    let i =
      bucket_offset
      + int_of_float (Float.floor (Float.log2 v *. float_of_int sub_buckets))
    in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

(* Geometric midpoint of a bucket — the representative value quantile
   estimates report before clamping to the observed range. *)
let value_of i =
  Float.exp2
    ((float_of_int (i - bucket_offset) +. 0.5) /. float_of_int sub_buckets)

type histdata = {
  hbuckets : int array;
  hcount : int;
  hsum : float;
  hmin : float;
  hmax : float;
}

type hstats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type value = C of float | G of float | H of histdata

type family = {
  fam_name : string;
  fam_kind : kind;
  fam_help : string option;
  fam_unit_s : bool;
  fam_cells : (labels * value) list;
}

(* Mutable internals, only touched under [lock]. *)
type hcell = {
  buckets : int array;
  mutable hc : int;
  mutable hs : float;
  mutable hmn : float;
  mutable hmx : float;
}

type cell = Num of float ref | Hc of hcell

type fam = {
  name : string;
  kind : kind;
  mutable help : string option;
  unit_s : bool;
  cells : (labels, cell) Hashtbl.t;
}

let lock = Mutex.create ()
let registry : (string, fam) Hashtbl.t = Hashtbl.create 64

(* Kill-switch for the overhead bench: disabled writes return before
   taking the lock.  Reads and [declare] stay live so a disabled run
   still exposes its (empty) families. *)
let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let protect f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Under [lock].  Returns [None] on a kind clash, counting it. *)
let family_of ~kind ~unit_s ?help name =
  match Hashtbl.find_opt registry name with
  | Some f ->
    if f.help = None && help <> None then f.help <- help;
    if f.kind = kind then Some f else None
  | None ->
    let f = { name; kind; help; unit_s; cells = Hashtbl.create 8 } in
    Hashtbl.add registry name f;
    Some f

(* Under [lock]. *)
let note_clash () =
  match family_of ~kind:Counter ~unit_s:false "obs.kind_clash" with
  | None -> ()
  | Some f ->
    (match Hashtbl.find_opt f.cells [] with
    | Some (Num r) -> r := !r +. 1.
    | Some (Hc _) -> ()
    | None -> Hashtbl.add f.cells [] (Num (ref 1.)))

(* Under [lock]. *)
let cell_of f labels =
  let labels = canon_labels labels in
  match Hashtbl.find_opt f.cells labels with
  | Some c -> c
  | None ->
    let c =
      match f.kind with
      | Hist ->
        Hc
          { buckets = Array.make n_buckets 0;
            hc = 0; hs = 0.; hmn = infinity; hmx = neg_infinity }
      | Counter | Gauge -> Num (ref 0.)
    in
    Hashtbl.add f.cells labels c;
    c

let with_cell ~kind ~unit_s name labels k =
  if !enabled_flag then
    protect (fun () ->
        match family_of ~kind ~unit_s name with
        | Some f -> k (cell_of f labels)
        | None -> note_clash ())

let declare ?help ?(unit_s = false) kind name =
  protect (fun () ->
      match family_of ~kind ~unit_s ?help name with
      | Some _ -> ()
      | None -> note_clash ())

let inc ?(labels = []) ?(by = 1.) name =
  with_cell ~kind:Counter ~unit_s:false name labels (function
    | Num r -> r := !r +. by
    | Hc _ -> ())

let inc_s ?(labels = []) name dt =
  with_cell ~kind:Counter ~unit_s:true name labels (function
    | Num r -> r := !r +. dt
    | Hc _ -> ())

let set ?(labels = []) name v =
  with_cell ~kind:Gauge ~unit_s:false name labels (function
    | Num r -> r := v
    | Hc _ -> ())

let observe ?(labels = []) name v =
  if not (Float.is_finite v) then inc "histogram.dropped"
  else
    with_cell ~kind:Hist ~unit_s:false name labels (function
      | Hc h ->
        let b = bucket_of v in
        h.buckets.(b) <- h.buckets.(b) + 1;
        h.hc <- h.hc + 1;
        h.hs <- h.hs +. v;
        if v < h.hmn then h.hmn <- v;
        if v > h.hmx then h.hmx <- v
      | Num _ -> ())

let time ?labels name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> observe ?labels name (Unix.gettimeofday () -. t0))
    f

(* ------------------------------------------------------------------ *)
(* Reads.                                                             *)

let value ?(labels = []) name =
  protect (fun () ->
      match Hashtbl.find_opt registry name with
      | None -> None
      | Some f ->
        (match Hashtbl.find_opt f.cells (canon_labels labels) with
        | Some (Num r) -> Some !r
        | Some (Hc _) | None -> None))

let sum name =
  protect (fun () ->
      match Hashtbl.find_opt registry name with
      | None -> 0.
      | Some f ->
        Hashtbl.fold
          (fun _ c acc ->
            match c with Num r -> acc +. !r | Hc _ -> acc)
          f.cells 0.)

let empty_hist () =
  { hbuckets = Array.make n_buckets 0;
    hcount = 0; hsum = 0.; hmin = infinity; hmax = neg_infinity }

let snapshot_hcell (h : hcell) =
  { hbuckets = Array.copy h.buckets;
    hcount = h.hc; hsum = h.hs; hmin = h.hmn; hmax = h.hmx }

let merge_hist a b =
  { hbuckets = Array.init n_buckets (fun i -> a.hbuckets.(i) + b.hbuckets.(i));
    hcount = a.hcount + b.hcount;
    hsum = a.hsum +. b.hsum;
    hmin = Float.min a.hmin b.hmin;
    hmax = Float.max a.hmax b.hmax }

let hist_quantile_of (h : histdata) q =
  let rank =
    Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.hcount)))
  in
  if rank >= h.hcount then h.hmax
  else
    let rec walk i seen =
      if i >= n_buckets then h.hmax
      else
        let seen = seen + h.hbuckets.(i) in
        if seen >= rank then Float.min h.hmax (Float.max h.hmin (value_of i))
        else walk (i + 1) seen
    in
    walk 0 0

let stats_of_hist (h : histdata) =
  { count = h.hcount; sum = h.hsum; min = h.hmin; max = h.hmax;
    p50 = hist_quantile_of h 0.5;
    p90 = hist_quantile_of h 0.9;
    p99 = hist_quantile_of h 0.99 }

let hist_data ?labels name =
  protect (fun () ->
      match Hashtbl.find_opt registry name with
      | None -> None
      | Some f when f.kind <> Hist -> None
      | Some f ->
        (match labels with
        | Some ls ->
          (match Hashtbl.find_opt f.cells (canon_labels ls) with
          | Some (Hc h) -> Some (snapshot_hcell h)
          | Some (Num _) | None -> None)
        | None ->
          (* Merged view across every cell of the family. *)
          let merged =
            Hashtbl.fold
              (fun _ c acc ->
                match c with
                | Hc h -> merge_hist acc (snapshot_hcell h)
                | Num _ -> acc)
              f.cells (empty_hist ())
          in
          Some merged))

let hist_stats ?labels name =
  match hist_data ?labels name with
  | Some h when h.hcount > 0 -> Some (stats_of_hist h)
  | Some _ | None -> None

let hist_quantile ?labels name q =
  match hist_data ?labels name with
  | Some h when h.hcount > 0 -> Some (hist_quantile_of h q)
  | Some _ | None -> None

let dump () =
  protect (fun () ->
      Hashtbl.fold
        (fun _ f acc ->
          let cells =
            Hashtbl.fold
              (fun ls c acc ->
                let v =
                  match c with
                  | Num r ->
                    (match f.kind with
                    | Gauge -> G !r
                    | Counter | Hist -> C !r)
                  | Hc h -> H (snapshot_hcell h)
                in
                (ls, v) :: acc)
              f.cells []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          { fam_name = f.name; fam_kind = f.kind; fam_help = f.help;
            fam_unit_s = f.unit_s; fam_cells = cells }
          :: acc)
        registry [])
  |> List.sort (fun a b -> String.compare a.fam_name b.fam_name)

let reset ?kind () =
  protect (fun () ->
      match kind with
      | None -> Hashtbl.reset registry
      | Some k ->
        let doomed =
          Hashtbl.fold
            (fun n f acc -> if f.kind = k then n :: acc else acc)
            registry []
        in
        List.iter (Hashtbl.remove registry) doomed)
