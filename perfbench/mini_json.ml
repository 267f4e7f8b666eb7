(* Just enough JSON to read the daemon's Stats reply (the server's own
   parser is internal to [Protocol]): objects, arrays, strings, numbers,
   booleans, null. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t'
                    || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let expect c =
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else raise (Bad (Printf.sprintf "bad literal at %d" !pos))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          let c = peek () in
          incr pos;
          (match c with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_char b (if code < 128 then Char.chr code else '?')
          | c -> Buffer.add_char b c);
          go ()
      | '\000' -> raise (Bad "unterminated string")
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos; ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws (); expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | _ -> expect '}'; Obj (List.rev ((k, v) :: acc))
          in
          fields []
    | '[' ->
        incr pos; ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | _ -> expect ']'; Arr (List.rev (v :: acc))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do incr pos done;
        if !pos = start then raise (Bad (Printf.sprintf "unexpected at %d" start));
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = value () in
  ws ();
  if !pos <> n then raise (Bad "trailing bytes");
  v

let member k = function
  | Obj fields -> (try List.assoc k fields with Not_found -> Null)
  | _ -> Null

(* [path j ["a"; "b"]] is j.a.b, [Null] when any step is missing. *)
let path j keys = List.fold_left (fun j k -> member k j) j keys

let num ?(default = 0.0) = function Num f -> f | _ -> default
let to_list = function Arr l -> l | _ -> []

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
