let max_width = 65_535

let solve ~capacity ~costs ~values =
  if capacity < 0 then invalid_arg "Group_knapsack.solve: negative capacity";
  let groups = Array.length costs in
  if Array.length values <> groups then
    invalid_arg "Group_knapsack.solve: costs and values differ in length";
  Array.iteri
    (fun g cost ->
      let width = Array.length cost in
      if width > max_width then
        invalid_arg "Group_knapsack.solve: more than 65535 options in a group";
      if Array.length values.(g) <> width then
        invalid_arg "Group_knapsack.solve: costs and values differ in length";
      for j = 1 to width - 1 do
        if cost.(j) < 0 then invalid_arg "Group_knapsack.solve: negative cost"
      done)
    costs;
  (* Past the sum of every group's dearest option each row is flat and
     every cell makes the same choices as that sum's cell, so the table
     stops there. *)
  let capacity =
    min capacity
      (Array.fold_left (fun acc cost -> acc + Array.fold_left max 0 cost) 0 costs)
  in
  let cells = capacity + 1 in
  let parent = Bytes.create (2 * cells * groups) in
  let best = ref (Array.make cells 0.) and next = ref (Array.make cells 0.) in
  for g = 0 to groups - 1 do
    let cost = costs.(g) and value = values.(g) in
    let width = Array.length cost in
    let prev = !best and row = !next in
    let base = 2 * cells * g in
    for cell = 0 to capacity do
      let v = ref prev.(cell) and choice = ref 0 in
      for j = 1 to width - 1 do
        let c = cost.(j) in
        if c <= cell then begin
          let candidate = prev.(cell - c) +. value.(j) in
          if candidate > !v then begin
            v := candidate;
            choice := j
          end
        end
      done;
      row.(cell) <- !v;
      Bytes.set_uint16_le parent (base + (2 * cell)) !choice
    done;
    best := row;
    next := prev
  done;
  let choice = Array.make groups 0 in
  let cell = ref capacity in
  for g = groups - 1 downto 0 do
    let j = Bytes.get_uint16_le parent ((2 * cells * g) + (2 * !cell)) in
    choice.(g) <- j;
    if j > 0 then cell := !cell - costs.(g).(j)
  done;
  choice
