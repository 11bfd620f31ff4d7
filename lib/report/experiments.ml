type t = { id : string; title : string; render : unit -> string }

let all =
  [
    { id = "table1"; title = "GPUs used in this experiment"; render = Table1.render };
    { id = "table2"; title = "Instruction throughput per cycles"; render = Table2.render };
    { id = "table3"; title = "Thread-block classification features"; render = Table34.render_table3 };
    { id = "fig3"; title = "Orio performance-tuning specification"; render = Table34.render_fig3 };
    { id = "table4"; title = "Kernel specifications"; render = Table34.render_table4 };
    { id = "fig1"; title = "Branch divergence performance loss"; render = Fig1.render };
    { id = "fig4"; title = "Thread counts of exhaustive autotuning"; render = Fig4.render };
    { id = "table5"; title = "Statistics for autotuned kernels"; render = Table5.render };
    { id = "fig5"; title = "Time from static instruction mixes"; render = Fig5.render };
    { id = "table6"; title = "Static-to-dynamic mix error rates"; render = Table6.render };
    { id = "table7"; title = "Suggested parameters for occupancy"; render = Table7.render };
    { id = "fig6"; title = "Improved search over exhaustive autotuning"; render = Fig6.render };
    { id = "fig7"; title = "Occupancy calculator impact graphs"; render = (fun () -> Fig7.render ()) };
    { id = "ablation"; title = "Ablations (extension): Eq. 6 weights, pruning decomposition"; render = Ablation.render };
  ]

let find id =
  let needle = String.lowercase_ascii id in
  List.find_opt (fun e -> e.id = needle) all

let render_all () =
  String.concat "\n"
    (List.map
       (fun e ->
         Gat_util.Trace.span "experiment"
           ~args:[ ("id", Gat_util.Trace.S e.id) ]
         @@ fun () ->
         Printf.sprintf "==== %s: %s ====\n%s" e.id e.title (e.render ()))
       all)
