type t = I32 | F32 | F64

let size_bytes = function I32 -> 4 | F32 -> 4 | F64 -> 8
let is_float = function I32 -> false | F32 | F64 -> true
let to_string = function I32 -> "i32" | F32 -> "f32" | F64 -> "f64"
