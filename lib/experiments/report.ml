type result = {
  banner : (string * string) option;
  rows : string list list;
  timings : (string * float) list;
  elapsed : float;
  status : string;
}

type t = {
  mutable header : (string * string) option;
  mutable rows_rev : string list list;
  mutable timings_rev : (string * float) list;
}

let create () = { header = None; rows_rev = []; timings_rev = [] }

let banner t ~id title = t.header <- Some (id, title)

let row t cells = t.rows_rev <- cells :: t.rows_rev

let timing t label dt = t.timings_rev <- (label, dt) :: t.timings_rev

let result ?(elapsed = 0.) ?(status = "exact") t =
  { banner = t.header;
    rows = List.rev t.rows_rev;
    timings = List.rev t.timings_rev;
    elapsed;
    status }

let collect f =
  let t = create () in
  (* any guard exhaustion during the driver means some solver stopped
     early and the numbers are best-effort, not exact *)
  let exhausted_before = int_of_float (Obs.Metrics.sum "guard.exhausted") in
  let t0 = Unix.gettimeofday () in
  f t;
  let status =
    if int_of_float (Obs.Metrics.sum "guard.exhausted") > exhausted_before then
      "partial"
    else "exact"
  in
  result ~elapsed:(Unix.gettimeofday () -. t0) ~status t

let pad width s align =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with `Left -> s ^ fill | `Right -> fill ^ s

let cell ?(width = 12) s = pad width s `Left
let cellr ?(width = 12) s = pad width s `Right

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let timed_into t label f =
  let r, dt = timed f in
  timing t label dt;
  (r, dt)

let pct v = Printf.sprintf "%.1f%%" v

let render fmt r =
  (match r.banner with
   | Some (id, title) -> Format.fprintf fmt "@.=== %s: %s ===@." id title
   | None -> ());
  if r.status <> "exact" then
    Format.fprintf fmt "(status: %s — a resource guard stopped a solver early)@."
      r.status;
  List.iter
    (fun cells -> Format.fprintf fmt "%s@." (String.concat "  " cells))
    r.rows
