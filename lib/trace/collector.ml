type t = {
  mask : int;
  ring : Record.t Ring.t;
}

let mask_of_categories cats =
  List.fold_left (fun m c -> m lor Record.category_bit c) 0 cats

let create ?(capacity = 262144) ?(policy = Ring.Drop_oldest)
    ?(categories = Record.all_categories) () =
  { mask = mask_of_categories categories;
    ring = Ring.create ~policy ~capacity () }

let wants t cat = t.mask land Record.category_bit cat <> 0

let emit t r = Ring.push t.ring r

let records t = Ring.to_list t.ring

let dropped t = Ring.dropped t.ring

let flushed t = Ring.flushed t.ring

let flush t = Ring.flush t.ring
