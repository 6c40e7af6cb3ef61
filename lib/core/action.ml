module I = Sekitei_util.Interval

type kind =
  | Place of { comp : int; node : int }
  | Cross of { iface : int; link : int; src : int; dst : int }

type t = {
  act_id : int;
  kind : kind;
  pre : int array;
  add : int array;
  add_closure : int array;
  cost_lb : float;
  cost_extra : float;
  in_levels : (int * I.t) array;
  out_levels : (int * I.t) array;
  checked_node : (string * I.t) array;
  checked_link : (string * I.t) array;
  label : string;
}
