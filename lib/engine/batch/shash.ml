let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let hex h = Printf.sprintf "%016Lx" h

let of_instance i = hex (fnv64 (Util.Json.to_string (Instance.to_json i)))
