(* A typed JSON value and its printer. The benchmark writes its result
   line through this and parses no JSON of its own: the only documents
   it reads back are traces, which Monet_obs.Trace.validate_json
   checks. *)

type t = Num of float | Int of int | Bool of bool | Str of string | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Num f ->
      if Float.is_finite f then Printf.sprintf "%.17g" f
      else invalid_arg "Json.to_string: non-finite number"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s -> "\"" ^ escape s ^ "\""
  | Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) fields)
      ^ "}"
