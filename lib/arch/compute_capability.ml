type t = Sm20 | Sm35 | Sm52 | Sm60

let all = [ Sm20; Sm35; Sm52; Sm60 ]

let to_string = function
  | Sm20 -> "sm_20"
  | Sm35 -> "sm_35"
  | Sm52 -> "sm_52"
  | Sm60 -> "sm_60"

let of_string s =
  match String.lowercase_ascii s with
  | "sm_20" | "sm20" | "2" | "2.0" -> Some Sm20
  | "sm_35" | "sm35" | "3.5" -> Some Sm35
  | "sm_52" | "sm52" | "5.2" -> Some Sm52
  | "sm_60" | "sm60" | "6" | "6.0" -> Some Sm60
  | _ -> None

let family = function
  | Sm20 -> "Fermi"
  | Sm35 -> "Kepler"
  | Sm52 -> "Maxwell"
  | Sm60 -> "Pascal"

let short = function Sm20 -> "F" | Sm35 -> "K" | Sm52 -> "M" | Sm60 -> "P"
let version = function Sm20 -> 2.0 | Sm35 -> 3.5 | Sm52 -> 5.2 | Sm60 -> 6.0

let rank = function Sm20 -> 0 | Sm35 -> 1 | Sm52 -> 2 | Sm60 -> 3
let compare a b = Int.compare (rank a) (rank b)
