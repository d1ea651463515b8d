type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

(* Is the next character [c]?  The hot paths test characters this way
   rather than through [peek], which allocates its option. *)
let at st c = st.pos < String.length st.s && String.unsafe_get st.s st.pos = c

let skip_ws st =
  let n = String.length st.s in
  while
    st.pos < n
    &&
    match String.unsafe_get st.s st.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    advance st
  done

let expect st c =
  if at st c then advance st
  else
    match peek st with
    | Some x -> fail "expected %c at offset %d, found %c" c st.pos x
    | None -> fail "expected %c at offset %d, found end of input" c st.pos

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail "bad literal at offset %d" st.pos

(* First index at or after [i] holding a quote or a backslash, or the
   string's length. *)
let rec string_stop s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> string_stop s (i + 1)

(* The general string body, escapes and all, from the current offset. *)
let parse_escaped_body st =
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' -> advance st; Buffer.contents b
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail "unterminated escape"
      | Some c ->
        advance st;
        (match c with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           if st.pos + 4 > String.length st.s then fail "bad \\u escape";
           let hex = String.sub st.s st.pos 4 in
           st.pos <- st.pos + 4;
           let code =
             try int_of_string ("0x" ^ hex)
             with Failure _ -> fail "bad \\u escape %S" hex
           in
           (* Keep it simple: BMP code points as UTF-8. *)
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
         | c -> fail "bad escape \\%c" c);
        go ())
    | Some c -> advance st; Buffer.add_char b c; go ()
  in
  go ()

let parse_string_body st =
  expect st '"';
  let start = st.pos in
  let stop = string_stop st.s start in
  if stop < String.length st.s && String.unsafe_get st.s stop = '"' then begin
    (* No escapes: the body is a plain substring. *)
    st.pos <- stop + 1;
    String.sub st.s start (stop - start)
  end
  else parse_escaped_body st

let parse_number st =
  let start = st.pos in
  let num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let n = String.length st.s in
  while st.pos < n && num_char (String.unsafe_get st.s st.pos) do
    advance st
  done;
  let s = String.sub st.s start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail "bad number %S at offset %d" s start

let rec parse_value st =
  skip_ws st;
  if st.pos >= String.length st.s then fail "unexpected end of input";
  match String.unsafe_get st.s st.pos with
  | '"' -> Str (parse_string_body st)
  | '{' ->
    advance st;
    skip_ws st;
    if at st '}' then (advance st; Obj [])
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        if at st ',' then (advance st; members ((k, v) :: acc))
        else if at st '}' then (advance st; Obj (List.rev ((k, v) :: acc)))
        else fail "expected , or } at offset %d" st.pos
      in
      members []
    end
  | '[' ->
    advance st;
    skip_ws st;
    if at st ']' then (advance st; Arr [])
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        if at st ',' then (advance st; elements (v :: acc))
        else if at st ']' then (advance st; Arr (List.rev (v :: acc)))
        else fail "expected , or ] at offset %d" st.pos
      in
      elements []
    end
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail "unexpected %c at offset %d" c st.pos

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing garbage at offset %d" st.pos;
  v

let member k = function
  | Obj fields -> (
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> fail "no member %S" k)
  | _ -> fail "member %S of a non-object" k

let to_float = function Num f -> f | _ -> fail "expected number"

(* [int] spans [min_int, -min_int): both bounds are exact floats. *)
let int_lo = Float.of_int min_int

let to_int = function
  | Num f when Float.is_integer f && f >= int_lo && f < -.int_lo ->
    int_of_float f
  | _ -> fail "expected integer"

let to_string = function Str s -> s | _ -> fail "expected string"
let to_list = function Arr l -> l | _ -> fail "expected array"

let int n = Num (float_of_int n)

(* --- Printing ------------------------------------------------------------- *)

(* Does [s] from [i] on print verbatim (no quote, backslash or control
   character)?  Most strings do, and then go out without a copy. *)
let rec verbatim s i =
  i >= String.length s
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && Char.code c >= 0x20 && verbatim s (i + 1)

let escape s =
  if verbatim s 0 then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

(* What [Printf]'s ["%.17g"] reaches once it has interpreted the format. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integral values below 1e15 print as integers and every other finite
   value as ["%.17g"], byte for byte what [Printf]'s ["%.0f"] and
   ["%.17g"] print, without interpreting a format per number.  -0 is
   integral but [string_of_int] would drop its sign: it takes the
   ["%.17g"] path, which prints ["-0"] as ["%.0f"] does. *)
let add_num b f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    Buffer.add_string b "null"
  else if
    Float.is_integer f && Float.abs f < 1e15
    && not (f = 0.0 && Float.sign_bit f)
  then Buffer.add_string b (string_of_int (int_of_float f))
  else Buffer.add_string b (format_float "%.17g" f)

let add_str b s =
  Buffer.add_char b '"';
  Buffer.add_string b (escape s);
  Buffer.add_char b '"'

let print j =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num f -> add_num b f
    | Str s -> add_str b s
    | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          go v)
        l;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          add_str b k;
          Buffer.add_string b ": ";
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b

let save path j =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (print j);
      Out_channel.output_char oc '\n')
