open Topology

let to_dot ?(highlight = []) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph topology {\n  node [shape=circle fontsize=10];\n";
  Array.iter
    (fun n ->
      let attrs =
        if List.mem n.node_id highlight then
          " [style=filled fillcolor=lightblue]"
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d [label=\"%s\"]%s;\n" n.node_id n.node_name attrs))
    (nodes t);
  Array.iter
    (fun l ->
      let a, b = l.ends in
      let bw = try List.assoc "lbw" l.link_resources with Not_found -> 0. in
      let style = match l.kind with Wan -> " style=bold color=red" | Lan -> "" in
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d [label=\"%g\"%s];\n" a b bw style))
    (links t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file t file =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_dot t))
