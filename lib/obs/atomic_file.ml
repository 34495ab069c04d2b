(* Whole-file output that never leaves a torn target: [write path f] runs
   [f] on a fresh, uniquely named file in [path]'s directory (created
   exclusively, mode 0o666 less the umask, as [open_out_bin] would) and
   renames it over [path] only once [f] returned and the file closed.
   On any exception the temporary file is removed and the exception
   re-raised, so [path] keeps its old contents, or stays absent. The
   rename is atomic within one file system, which is why the temporary
   file sits beside the target and not in the system's temp directory.
   A replaced file takes the new file's permissions, not the old one's. *)
let write path f =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  match
    f oc;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt
