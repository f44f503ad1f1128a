type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  (* Shortest representation that round-trips, always with a decimal
     point or exponent so the value stays a float on re-read. *)
  let s = Printf.sprintf "%.12g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else Buffer.add_string buf "null"
  | String s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        write buf v)
      members;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

let pp ppf j = Format.pp_print_string ppf (to_string j)

let to_channel oc j =
  output_string oc (to_string j);
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* Reader: recursive descent over RFC 8259 text, strict enough to
   reject what [pp] never writes (trailing commas, raw control
   characters, surrogate escapes). *)

exception Parse_error of int * string

let max_depth = 512

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let at c = !pos < n && s.[!pos] = c in
  let eat c = if at c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let rec ws () = if at ' ' || at '\n' || at '\t' || at '\r' then (incr pos; ws ()) in
  let digits () =
    let first = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    if !pos = first then fail "expected a digit"
  in
  let next () =
    if !pos < n then (incr pos; s.[!pos - 1]) else fail "unexpected end of input"
  in
  let unicode buf =
    let hex = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    match int_of_string_opt ("0x" ^ hex) with
    | Some u when String.for_all is_hex hex && (u < 0xD800 || u > 0xDFFF) ->
      pos := !pos + 4;
      Buffer.add_utf_8_uchar buf (Uchar.of_int u)
    | _ -> fail "bad \\u escape"
  in
  let string () =
    eat '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' when at 'u' ->
        incr pos;
        unicode buf;
        go ()
      | '\\' -> (
        match String.index_opt "\"\\/bfnrt" (next ()) with
        | Some i ->
          Buffer.add_char buf "\"\\/\b\012\n\r\t".[i];
          go ()
        | None -> fail "bad escape")
      | c when c < ' ' -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    if at '-' then incr pos;
    if at '0' then incr pos else digits ();
    let frac = at '.' in
    if frac then (incr pos; digits ());
    let exp = at 'e' || at 'E' in
    if exp then (incr pos; if at '+' || at '-' then incr pos; digits ());
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i when not (frac || exp) -> Int i
    | _ -> Float (float_of_string lit)
  in
  let word w v =
    let len = String.length w in
    if !pos + len <= n && String.sub s !pos len = w then (pos := !pos + len; v)
    else fail "invalid literal"
  in
  (* Comma-separated items up to [close], the opening bracket eaten. *)
  let items close item =
    ws ();
    if at close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if at ',' then (incr pos; more acc) else (eat close; List.rev acc)
      in
      more []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    ws ();
    match if !pos < n then s.[!pos] else fail "unexpected end of input" with
    | 'n' -> word "null" Null
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | '"' -> String (string ())
    | '-' | '0' .. '9' -> number ()
    | '[' ->
      incr pos;
      List (items ']' (fun () -> value (depth + 1)))
    | '{' ->
      incr pos;
      let member () =
        ws ();
        let k = string () in
        ws ();
        eat ':';
        (k, value (depth + 1))
      in
      Obj (items '}' member)
    | _ -> fail "unexpected character"
  in
  match
    let v = value 0 in
    ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)
