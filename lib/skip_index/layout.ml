type t = Nc | Tc | Tcs | Tcsb | Tcsbr

let all = [ Nc; Tc; Tcs; Tcsb; Tcsbr ]

let to_string = function
  | Nc -> "NC"
  | Tc -> "TC"
  | Tcs -> "TCS"
  | Tcsb -> "TCSB"
  | Tcsbr -> "TCSBR"

let of_string = function
  | "NC" -> Some Nc
  | "TC" -> Some Tc
  | "TCS" -> Some Tcs
  | "TCSB" -> Some Tcsb
  | "TCSBR" -> Some Tcsbr
  | _ -> None

let to_byte = function Nc -> 0 | Tc -> 1 | Tcs -> 2 | Tcsb -> 3 | Tcsbr -> 4

let of_byte = function
  | 0 -> Some Nc
  | 1 -> Some Tc
  | 2 -> Some Tcs
  | 3 -> Some Tcsb
  | 4 -> Some Tcsbr
  | _ -> None

let has_sizes = function Nc | Tc -> false | Tcs | Tcsb | Tcsbr -> true
let recursive = function Tcsbr -> true | _ -> false
