let needs_quotes s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape s =
  if needs_quotes s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let row_to_string row = String.concat "," (List.map escape row)

let to_string rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun row ->
      Buffer.add_string buf (row_to_string row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
