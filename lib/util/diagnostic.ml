(* Structured diagnostics shared by the spec validator, the static
   preflight analyzer and the plan certifier.  Lives in [Sekitei_util]
   because producers sit on both sides of the spec/core boundary. *)

type severity = Warning | Error

type t = {
  severity : severity;
  code : string;
  loc : string;
  message : string;
  evidence : (string * string) list;
}

let make severity ~code ~loc ?(evidence = []) message =
  { severity; code; loc; message; evidence }

let error ~code ~loc ?evidence fmt =
  Printf.ksprintf (fun m -> make Error ~code ~loc ?evidence m) fmt

let warning ~code ~loc ?evidence fmt =
  Printf.ksprintf (fun m -> make Warning ~code ~loc ?evidence m) fmt

let severity_label = function Warning -> "warning" | Error -> "error"

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let max_severity ds =
  List.fold_left
    (fun acc d ->
      match (acc, d.severity) with
      | Some Error, _ | _, Error -> Some Error
      | _ -> Some Warning)
    None ds

(* Exit-code convention of `sekitei check`: clean / warnings / errors. *)
let exit_code ds =
  match max_severity ds with None -> 0 | Some Warning -> 1 | Some Error -> 2

(* Errors before warnings; insertion order preserved within a severity
   (sorting is stable), so producers control the secondary order. *)
let by_severity ds =
  List.stable_sort
    (fun a b ->
      match (a.severity, b.severity) with
      | Error, Warning -> -1
      | Warning, Error -> 1
      | _ -> 0)
    ds

let to_string d =
  let ev =
    match d.evidence with
    | [] -> ""
    | kvs ->
        " ("
        ^ String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        ^ ")"
  in
  Printf.sprintf "%s[%s] %s: %s%s"
    (severity_label d.severity)
    d.code d.loc d.message ev

let to_json d =
  Json.Obj
    [
      ("severity", Json.Str (severity_label d.severity));
      ("code", Json.Str d.code);
      ("loc", Json.Str d.loc);
      ("message", Json.Str d.message);
      ("evidence", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) d.evidence));
    ]

let list_to_json ds = Json.List (List.map to_json ds)
