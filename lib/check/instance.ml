(* perfbench/ still names the instance type as Check.Instance. *)
include Batch.Instance
