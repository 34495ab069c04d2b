(* Prints the container fixture lines; see container_fixture.ml. *)

let () = List.iter print_endline (Container_fixture.lines ())
