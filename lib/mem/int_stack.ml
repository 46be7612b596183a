type t = { mutable data : int array; mutable top : int }

let create () = { data = [||]; top = 0 }

let push t x =
  if t.top = Array.length t.data then begin
    let bigger = Array.make (max 64 (2 * t.top)) 0 in
    Array.blit t.data 0 bigger 0 t.top;
    t.data <- bigger
  end;
  Array.unsafe_set t.data t.top x;
  t.top <- t.top + 1

let pop t =
  if t.top = 0 then -1
  else begin
    t.top <- t.top - 1;
    Array.unsafe_get t.data t.top
  end
