type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ---------------------------------------------------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* %.17g round-trips every finite IEEE double; JSON has no inf/nan, so
   clamp those to null (no simulator metric produces them). *)
let add_float b f =
  match Float.classify_float f with
  | FP_infinite | FP_nan -> Buffer.add_string b "null"
  | _ ->
    let s = Printf.sprintf "%.17g" f in
    (* Ensure the token stays a JSON number that parses back as Float. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
      Buffer.add_string b s
    else begin
      Buffer.add_string b s;
      Buffer.add_string b ".0"
    end

let rec write ~indent ~level b v =
  let nl pad =
    match indent with
    | None -> ()
    | Some step ->
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (step * pad) ' ')
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | String s -> escape_string b s
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        nl (level + 1);
        write ~indent ~level:(level + 1) b item)
      items;
    nl level;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj members ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char b ',';
        nl (level + 1);
        escape_string b k;
        Buffer.add_char b ':';
        (match indent with None -> () | Some _ -> Buffer.add_char b ' ');
        write ~indent ~level:(level + 1) b item)
      members;
    nl level;
    Buffer.add_char b '}'

let render indent v =
  let b = Buffer.create 256 in
  write ~indent ~level:0 b v;
  Buffer.contents b

let to_string v = render None v
let to_string_pretty v = render (Some 2) v

(* --- parsing ----------------------------------------------------------- *)

exception Parse_error of string

let parse_error pos msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> parse_error !pos (Printf.sprintf "expected %c, got %c" c got)
    | None -> parse_error !pos (Printf.sprintf "expected %c, got end" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else parse_error !pos ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error !pos "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> begin
        if !pos >= n then parse_error !pos "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then parse_error !pos "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (* Exactly four hex digits: [int_of_string] alone would also
             take OCaml's [_] digit separators. *)
          let is_hex = function
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
            | _ -> false
          in
          if not (String.for_all is_hex hex) then
            parse_error !pos ("bad \\u escape " ^ hex);
          pos := !pos + 4;
          let code = int_of_string ("0x" ^ hex) in
          (* Encode the code point as UTF-8 (surrogate pairs are passed
             through as-is; the simulator never emits them). *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
        | c -> parse_error !pos (Printf.sprintf "bad escape \\%c" c));
        go ()
      end
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let token = String.sub s start (!pos - start) in
    (* JSON forbids leading zeros: 0, -0 and 0.5 are numbers, 007 and
       -01 are not. *)
    let digits = if token <> "" && token.[0] = '-' then 1 else 0 in
    if
      String.length token > digits + 1
      && token.[digits] = '0'
      && match token.[digits + 1] with '0' .. '9' -> true | _ -> false
    then parse_error start ("leading zero in number " ^ token);
    let floaty =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token
    in
    if floaty then
      match float_of_string_opt token with
      | Some f -> Float f
      | None -> parse_error start ("bad number " ^ token)
    else
      match int_of_string_opt token with
      | Some i -> Int i
      | None -> parse_error start ("bad number " ^ token)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> parse_error !pos "expected , or ] in array"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec members acc =
          let m = member () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members (m :: acc)
          | Some '}' ->
            advance ();
            List.rev (m :: acc)
          | _ -> parse_error !pos "expected , or } in object"
        in
        Obj (members [])
      end
    | Some c -> parse_error !pos (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then parse_error !pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --------------------------------------------------------- *)

let kind = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let member name = function
  | Obj members -> (
    match List.assoc_opt name members with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing member %S" name))
  | v -> Error (Printf.sprintf "expected object for member %S, got %s" name (kind v))

let to_int = function
  | Int i -> Ok i
  | v -> Error ("expected int, got " ^ kind v)

let to_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | v -> Error ("expected number, got " ^ kind v)

let to_str = function
  | String s -> Ok s
  | v -> Error ("expected string, got " ^ kind v)

let to_list = function
  | List l -> Ok l
  | v -> Error ("expected array, got " ^ kind v)

let to_obj = function
  | Obj o -> Ok o
  | v -> Error ("expected object, got " ^ kind v)
