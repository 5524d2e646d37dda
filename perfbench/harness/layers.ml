(* The benchmark's layer harness.

     layers reference
       Seq-engine cycles and memoized estimates for every fig1/fig2 cell,
       the panel layouts, and the kernel categories: what perfbench/run.py
       checks the program's outputs against.  The Seq cycles come from
       feeding the lazy instruction streams straight into a fresh SoC, the
       way the seed engine did, so they do not depend on trace compilation
       or on the Runner's engine selection.

     layers trace WORKLOAD WORKDIR
       The traced per-layer run.  For every panel of the workload it runs
       (1) the panel the way `simbridge csv` does (Experiments.figure_by_id,
       figure_csv, Run_report.build/write), (2) the panel's cells through
       the Runner, untraced, and (3) the same cells again, calling each
       layer's public functions itself with a span around every call.
       It prints one tab-separated line per metric and per cell, and writes
       the CSVs and the spans into WORKDIR.

   Everything runs sequentially in this process (one worker domain). *)

module W = Workloads.Workload
module Cat = Platform.Catalog
module E = Simbridge.Experiments
module R = Simbridge.Runner

let now = Unix.gettimeofday

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------- panels *)

type cell =
  | Kernel of Platform.Config.t * W.kernel
  | App of Platform.Config.t * Workloads.Codegen.t * int * W.app

type panel = {
  id : string;
  cells : cell array;
  xs : string array;  (** x label of each cell *)
  plats : string list;  (** platform columns, hardware first *)
  build : float array -> E.series list;  (** per-cell target seconds -> series *)
}

let figure id series = { E.id; title = ""; note = ""; reference = Some 1.0; series }

(* Kernel-major grid, hardware first, as Experiments.microbench_figure
   lays it out. *)
let kernel_panel id (hw : Platform.Config.t) (sims : Platform.Config.t list) =
  let plats = Array.of_list (hw :: sims) in
  let np = Array.length plats in
  let kernels = Array.of_list Workloads.Microbench.evaluated in
  let cells =
    Array.concat
      (Array.to_list (Array.map (fun k -> Array.map (fun p -> Kernel (p, k)) plats) kernels))
  in
  let build secs =
    List.mapi
      (fun i (sim : Platform.Config.t) ->
        {
          E.label = sim.name;
          points =
            Array.to_list
              (Array.mapi
                 (fun ki (k : W.kernel) -> (k.name, secs.(ki * np) /. secs.((ki * np) + i + 1)))
                 kernels);
        })
      sims
  in
  let xs = Array.map (function Kernel (_, k) -> k.W.name | App _ -> "") cells in
  { id; cells; xs; plats = Array.to_list (Array.map (fun (p : Platform.Config.t) -> p.name) plats); build }

let fig1 = kernel_panel "fig1" Cat.banana_pi_hw [ Cat.banana_pi_sim; Cat.fast_banana_pi_sim ]

let fig2 =
  kernel_panel "fig2" Cat.milkv_hw [ Cat.boom_small; Cat.boom_medium; Cat.boom_large; Cat.milkv_sim ]

(* Platform-major NPB grid, hardware row first (Experiments.npb_figure). *)
let npb_panel id hw sims ~ranks =
  let apps = Array.of_list Workloads.Npb.all in
  let na = Array.length apps in
  let rows = (hw, Workloads.Codegen.gcc_13_2) :: List.map (fun s -> (s, Workloads.Codegen.gcc_9_4)) sims in
  let cells =
    Array.concat (List.map (fun (p, cg) -> Array.map (fun a -> App (p, cg, ranks, a)) apps) rows)
  in
  let build secs =
    List.mapi
      (fun s (sim : Platform.Config.t) ->
        {
          E.label = sim.name;
          points =
            Array.to_list
              (Array.mapi
                 (fun a (app : W.app) ->
                   (String.uppercase_ascii app.app_name, secs.(a) /. secs.(((s + 1) * na) + a)))
                 apps);
        })
      sims
  in
  let xs = Array.map (function App (_, _, _, a) -> a.W.app_name | Kernel _ -> "") cells in
  { id; cells; xs; plats = List.map (fun ((p : Platform.Config.t), _) -> p.name) rows; build }

let fig3b =
  npb_panel "fig3b" Cat.banana_pi_hw
    [ Cat.rocket1; Cat.rocket2; Cat.banana_pi_sim; Cat.fast_banana_pi_sim ]
    ~ranks:4

(* (pair, ranks, sim-then-hw) grid (Experiments.app_pair_figure). *)
let pair_panel id app =
  let ranks_list = [| 1; 2; 4 |] in
  let pairs =
    [| ("banana-pi pair", Cat.banana_pi_sim, Cat.banana_pi_hw); ("milk-v pair", Cat.milkv_sim, Cat.milkv_hw) |]
  in
  let cells =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (_, sim, hw) ->
              Array.concat
                (Array.to_list
                   (Array.map
                      (fun r ->
                        [| App (sim, Workloads.Codegen.gcc_9_4, r, app); App (hw, Workloads.Codegen.gcc_13_2, r, app) |])
                      ranks_list)))
            pairs))
  in
  let build secs =
    Array.to_list
      (Array.mapi
         (fun p (label, _, _) ->
           {
             E.label;
             points =
               Array.to_list
                 (Array.mapi
                    (fun ri r ->
                      let i = (p * 2 * Array.length ranks_list) + (2 * ri) in
                      (string_of_int r ^ " ranks", secs.(i + 1) /. secs.(i)))
                    ranks_list);
           })
         pairs)
  in
  let xs = Array.map (function App (_, _, r, _) -> string_of_int r ^ " ranks" | Kernel _ -> "") cells in
  let plats = Array.to_list (Array.map (fun (_, s, h) -> [ s.Platform.Config.name; h.Platform.Config.name ]) pairs) in
  { id; cells; xs; plats = List.concat plats; build }

let fig5 = pair_panel "fig5" Workloads.Ume.app
let fig6 = pair_panel "fig6" Workloads.Lammps.lj
let fig7 = pair_panel "fig7" Workloads.Lammps.chain

let cell_platform = function Kernel (p, _) | App (p, _, _, _) -> p

(* Workload -> (panels, engine, whether the panels share one process). *)
let workload = function
  | "serve_figs" -> ([ fig1; fig2; fig5; fig7 ], `Trace, true)
  | "memo_figs" -> ([ fig1; fig2 ], `Memo, false)
  | "mpi_figs" -> ([ fig3b; fig6 ], `Trace, false)
  | w -> failwith ("unknown workload " ^ w)

(* ---------------------------------------------------------- reference *)

(* Exact measured-region cycles from the lazy streams: setup through the
   full-detail model, then the measured stream instruction by instruction
   on core 0 of the same SoC. *)
let seq_cycles config (k : W.kernel) =
  let soc = Platform.Soc.create config in
  (match k.W.setup with
  | Some setup -> ignore (Platform.Soc.run_stream soc (setup ~scale:1.0))
  | None -> ());
  let iface = Platform.Soc.core_iface soc 0 in
  let c0 = iface.Smpi.now () in
  Seq.iter iface.Smpi.feed (k.W.stream ~scale:1.0);
  iface.Smpi.now () - c0

let reference () =
  List.iter
    (fun k ->
      Printf.printf "category\t%s\t%s\n" k.W.name (W.category_name k.W.category))
    Workloads.Microbench.all;
  List.iter
    (fun p ->
      Printf.printf "panel\t%s\t%s\n" p.id (String.concat "," p.plats);
      Array.iter
        (fun c ->
          match c with
          | App _ -> ()
          | Kernel (cfg, k) ->
            Printf.printf "seq\t%s\t%s\t%s\t%d\t%.17g\n" p.id cfg.name k.W.name (seq_cycles cfg k)
              (Platform.Config.freq_hz cfg);
            let t = R.run_kernel_timed ~engine:`Memo cfg k in
            Printf.printf "memo\t%s\t%s\t%s\t%d\t%.17g\n" p.id cfg.name k.W.name
              t.R.estimate.Sampling.Estimate.est_cycles t.R.estimate.Sampling.Estimate.ci95_cycles)
        p.cells)
    [ fig1; fig2 ]

(* -------------------------------------------------------------- spans *)

type span = {
  name : string;
  parent : int;
  t0 : float;
  mutable t1 : float;
  mutable count : int;  (** instructions (or records) handled by the call *)
  mutable words : float;  (** words the call allocated *)
  mutable child_s : float;
}

(* Growable span store; ids are indices. *)
let spans = ref [||]
let nspans = ref 0
let stack = ref [ -1 ]

let add_span s =
  if !nspans = Array.length !spans then begin
    let a = Array.make (max 1024 (2 * !nspans)) s in
    Array.blit !spans 0 a 0 !nspans;
    spans := a
  end;
  !spans.(!nspans) <- s;
  incr nspans

let span_list () = Array.to_list (Array.sub !spans 0 !nspans)

(* [span name f]: [f] returns its result and the count recorded at the
   same boundary. *)
let span name f =
  let id = !nspans in
  let s = { name; parent = List.hd !stack; t0 = now (); t1 = 0.0; count = 0; words = 0.0; child_s = 0.0 } in
  add_span s;
  stack := id :: !stack;
  let w0 = alloc_words () in
  let r, count = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
  s.words <- alloc_words () -. w0;
  s.t1 <- now ();
  s.count <- count;
  if s.parent >= 0 then begin
    let p = !spans.(s.parent) in
    p.child_s <- p.child_s +. (s.t1 -. s.t0)
  end;
  r

let dur s = s.t1 -. s.t0
let layer_of s = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"t0\":%.6f,\"dur_s\":%.9f,\"count\":%d,\"words\":%.0f}\n"
        (if i = 0 then "" else ",")
        i s.name s.parent s.t0 (dur s) s.count s.words)
    (span_list ());
  output_string oc "]\n";
  close_out oc

(* ------------------------------------------------------- traced cells *)

(* What the program's caches would hold within one process: compiled
   traces per (kernel, setup) and block analyses per kernel. *)
type caches = {
  traces : (string * bool, Trace.t) Hashtbl.t;
  blocks : (string, Trace.Blocks.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable compiled_words : int;
  mutable compiled_insns : int;
  mutable repeat_insns : float;
  mutable analyzed_insns : int;
}

let new_caches () =
  {
    traces = Hashtbl.create 64;
    blocks = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    compiled_words = 0;
    compiled_insns = 0;
    repeat_insns = 0.0;
    analyzed_insns = 0;
  }

let force_stream s =
  let n = ref 0 in
  Seq.iter (fun _ -> incr n) s;
  !n

let trace_of caches (k : W.kernel) ~setup (gen : scale:float -> Isa.Insn.t Seq.t) =
  match Hashtbl.find_opt caches.traces (k.W.name, setup) with
  | Some tr ->
    caches.hits <- caches.hits + 1;
    tr
  | None ->
    caches.misses <- caches.misses + 1;
    span "workloads.gen" (fun () ->
        let n = force_stream (gen ~scale:1.0) in
        ((), n));
    let tr =
      span "trace.compile" (fun () ->
          let tr = Trace.compile (gen ~scale:1.0) in
          (tr, Trace.length tr))
    in
    caches.compiled_words <- caches.compiled_words + Trace.words tr;
    caches.compiled_insns <- caches.compiled_insns + Trace.length tr;
    Hashtbl.replace caches.traces (k.W.name, setup) tr;
    tr

let replay_span (cfg : Platform.Config.t) =
  match cfg.core with Platform.Config.Inorder _ -> "replay.inorder" | Platform.Config.Ooo _ -> "replay.ooo"

type memo_acc = {
  mutable instances : int;
  mutable memo_hits : int;
  mutable ff : int;
  mutable measured : int;
  mutable messages : int;
}

let acc = { instances = 0; memo_hits = 0; ff = 0; measured = 0; messages = 0 }

(* One cell, layer by layer, in the order Runner.run_kernel_timed and
   Runner.run_app call the layers.  Returns (cycles, seconds, bound). *)
let traced_cell caches engine cell =
  span "core.cell" (fun () ->
      let r =
        match cell with
        | Kernel (cfg, k) ->
          let soc = span "platform.create" (fun () -> (Platform.Soc.create cfg, 0)) in
          (match k.W.setup with
          | Some setup ->
            let tr = trace_of caches k ~setup:true setup in
            span (replay_span cfg) (fun () -> (ignore (Platform.Soc.run_trace soc tr), Trace.length tr))
          | None -> ());
          let tr = trace_of caches k ~setup:false k.W.stream in
          let iface = Platform.Soc.core_iface soc 0 in
          let cycles, bound =
            match engine with
            | `Trace ->
              let c0 = iface.Smpi.now () in
              span (replay_span cfg) (fun () ->
                  Platform.Soc.feed_trace soc tr ~lo:0 ~hi:(Trace.length tr);
                  ((), Trace.length tr));
              (iface.Smpi.now () - c0, 0.0)
            | `Memo ->
              let blocks =
                match Hashtbl.find_opt caches.blocks k.W.name with
                | Some b -> b
                | None ->
                  let b = span "trace.blocks" (fun () -> (Trace.Blocks.analyze tr, Trace.length tr)) in
                  caches.repeat_insns <-
                    caches.repeat_insns
                    +. (Trace.Blocks.repeat_fraction b (Trace.length tr) *. float_of_int (Trace.length tr));
                  caches.analyzed_insns <- caches.analyzed_insns + Trace.length tr;
                  Hashtbl.replace caches.blocks k.W.name b;
                  b
              in
              let st =
                span "memo.run" (fun () ->
                    let st =
                      Uarch.Memo.run ~fingerprint:(Platform.Config.fingerprint cfg)
                        {
                          Uarch.Memo.feed_range = (fun ~lo ~hi -> Platform.Soc.feed_trace soc tr ~lo ~hi);
                          fast_forward =
                            (fun ~cycles ~insns ~loads ~stores ->
                              Platform.Soc.fast_forward soc ~cycles ~insns ~loads ~stores);
                          now = iface.Smpi.now;
                        }
                        blocks
                    in
                    (st, Trace.length tr))
              in
              acc.instances <- acc.instances + st.Uarch.Memo.instances;
              acc.memo_hits <- acc.memo_hits + st.Uarch.Memo.memo_hits;
              acc.ff <- acc.ff + st.Uarch.Memo.ff_insns;
              acc.measured <- acc.measured + st.Uarch.Memo.measured_insns;
              (st.Uarch.Memo.est_cycles, st.Uarch.Memo.err_bound_cycles)
          in
          (cycles, Util.Units.cycles_to_seconds ~freq_hz:(Platform.Config.freq_hz cfg) cycles, bound)
        | App (cfg, codegen, ranks, app) ->
          let soc = span "platform.create" (fun () -> (Platform.Soc.create cfg, 0)) in
          span "workloads.gen" (fun () ->
              let prog = app.W.make ~codegen ~ranks ~scale:1.0 in
              let n =
                Array.fold_left
                  (List.fold_left (fun n seg ->
                       match seg with Smpi.Compute s -> n + force_stream s | Smpi.Comm _ -> n))
                  0 prog
              in
              ((), n));
          let res =
            span "smpi.run_ranks" (fun () ->
                let r = Platform.Soc.run_ranks soc (app.W.make ~codegen ~ranks ~scale:1.0) in
                (r, r.Platform.Soc.instructions))
          in
          (match res.Platform.Soc.comm with
          | Some c -> acc.messages <- acc.messages + c.Smpi.messages
          | None -> ());
          (res.Platform.Soc.cycles, res.Platform.Soc.seconds, 0.0)
      in
      (r, 0))

(* ---------------------------------------------------------- the run *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median per-frame cost of encoding and decoding one served fig2 reply. *)
let codec_us payload =
  let resp =
    { Serve.Protocol.rs_id = "q"; rs_result = Ok (payload, Validate.Jsonx.Obj [ ("served", Validate.Jsonx.Str "cached") ]) }
  in
  let reps = 50 in
  median
    (Array.init 41 (fun _ ->
         let t0 = now () in
         for _ = 1 to reps do
           match Serve.Protocol.parse_response (Serve.Protocol.print_response resp) with
           | Ok _ -> ()
           | Error e -> failwith e
         done;
         (now () -. t0) /. float_of_int reps *. 1e6))

let trace_run wl dir =
  let panels, engine, shared = workload wl in
  let metric name v = Printf.printf "metric\t%s\t%.17g\n" name v in
  (* (1) the panel as `simbridge csv` computes it, first, on a fresh heap
     like the CLI process's. *)
  let insns = ref 0 and measured_wall = ref 0.0 in
  let csv_s = ref 0.0 and report_s = ref 0.0 in
  List.iter
    (fun p ->
      R.trace_cache_clear ();
      R.block_cache_clear ();
      let reg = Telemetry.Registry.create () in
      let t0 = now () in
      let fig =
        Telemetry.Span.root ~name:("csv:" ^ p.id) reg (fun () ->
            E.figure_by_id ~jobs:1 ~telemetry:reg ~engine p.id)
      in
      let wall = now () -. t0 in
      metric ("experiments.figure_s." ^ p.id) wall;
      let t1 = now () in
      let csv = E.figure_csv (Option.get fig) in
      csv_s := !csv_s +. (now () -. t1);
      write_file (Filename.concat dir ("cli-" ^ p.id ^ ".csv")) csv;
      let t2 = now () in
      let report =
        Ledger.Run_report.build ~wall_s:wall ~command:("csv " ^ p.id)
          ~config:[ ("figure", Validate.Jsonx.Str p.id) ]
          ~telemetry:reg ()
      in
      Ledger.Run_report.write ~path:(Filename.concat dir ("run-report-" ^ p.id ^ ".json")) report;
      report_s := !report_s +. (now () -. t2);
      (match Telemetry.Registry.find_counter reg "core.instructions" with
      | Some n -> insns := !insns + n
      | None -> ());
      measured_wall := !measured_wall +. Ledger.Run_report.measured_wall_s reg)
    panels;
  (* (2) untraced: the panels' cells through the Runner, caches as the
     program's processes would have them. *)
  let untraced_t0 = now () in
  if shared then (R.trace_cache_clear (); R.block_cache_clear ());
  let untraced =
    List.map
      (fun p ->
        if not shared then (R.trace_cache_clear (); R.block_cache_clear ());
        let kernels, apps = List.partition (function Kernel _ -> true | App _ -> false) (Array.to_list p.cells) in
        let kres =
          R.run_kernel_grid ~jobs:1 ~engine
            (List.map (function Kernel (c, k) -> (c, k) | App _ -> assert false) kernels)
        in
        let ares =
          R.run_app_grid ~jobs:1
            (List.map (function App (c, cg, r, a) -> (c, cg, r, a) | Kernel _ -> assert false) apps)
        in
        let kres = ref (List.map (fun t -> t.R.result.Platform.Soc.cycles) kres) in
        let ares = ref (List.map (fun (r : Platform.Soc.result) -> r.cycles) ares) in
        let pop l = match !l with x :: rest -> l := rest; x | [] -> assert false in
        Array.map (function Kernel _ -> pop kres | App _ -> pop ares) p.cells)
      panels
  in
  let untraced_s = now () -. untraced_t0 in
  (* (3) traced: every layer call under a span. *)
  let caches = ref (new_caches ()) in
  let all_caches = ref [] in
  let traced_t0 = now () in
  let traced =
    List.map
      (fun p ->
        if (not shared) || !all_caches = [] then begin
          caches := new_caches ();
          all_caches := !caches :: !all_caches
        end;
        span "core.panel" (fun () ->
            let res = Array.map (traced_cell !caches engine) p.cells in
            let csv =
              span "core.figure_csv" (fun () ->
                  (E.figure_csv (figure p.id (p.build (Array.map (fun (_, s, _) -> s) res))), 0))
            in
            ((res, csv), Array.length p.cells)))
      panels
  in
  let traced_s = now () -. traced_t0 in
  (* Cells and traced CSVs, for run.py's comparisons. *)
  List.iter2
    (fun p (u, ((res : (int * float * float) array), csv)) ->
      write_file (Filename.concat dir ("traced-" ^ p.id ^ ".csv")) csv;
      Array.iteri
        (fun i c ->
          let cycles, _, bound = res.(i) in
          Printf.printf "cell\t%s\t%s\t%s\t%d\t%d\t%.17g\n" p.id (cell_platform c).Platform.Config.name
            p.xs.(i) cycles u.(i) bound)
        p.cells)
    panels (List.combine untraced traced);
  write_spans (Filename.concat dir ("spans-" ^ wl ^ ".json"));
  (* Per-layer sums. *)
  let all = span_list () in
  let sum ?(f = dur) pred = List.fold_left (fun a s -> if pred s then a +. f s else a) 0.0 all in
  let count pred = List.fold_left (fun a s -> if pred s then a + s.count else a) 0 all in
  let named n s = s.name = n in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let mips pred = ratio (float_of_int (count pred)) (sum pred) /. 1e6 in
  let words_per pred = ratio (sum ~f:(fun s -> s.words) pred) (float_of_int (count pred)) in
  metric "workloads.gen_s" (sum (named "workloads.gen"));
  metric "workloads.alloc_words_per_insn" (words_per (named "workloads.gen"));
  metric "trace.compile_s" (sum (named "trace.compile"));
  let cs = !all_caches in
  let fsum f = float_of_int (List.fold_left (fun a c -> a + f c) 0 cs) in
  metric "trace.words_per_insn" (ratio (fsum (fun c -> c.compiled_words)) (fsum (fun c -> c.compiled_insns)));
  metric "trace.cache_hit_rate" (ratio (fsum (fun c -> c.hits)) (fsum (fun c -> c.hits + c.misses)));
  metric "trace.blocks_s" (sum (named "trace.blocks"));
  metric "trace.repeat_fraction"
    (ratio (List.fold_left (fun a c -> a +. c.repeat_insns) 0.0 cs) (fsum (fun c -> c.analyzed_insns)));
  metric "memo.run_s" (sum (named "memo.run"));
  metric "memo.hit_rate" (ratio (float_of_int acc.memo_hits) (float_of_int acc.instances));
  metric "memo.ff_share" (ratio (float_of_int acc.ff) (float_of_int (acc.ff + acc.measured)));
  metric "replay.inorder_mips" (mips (named "replay.inorder"));
  metric "replay.ooo_mips" (mips (named "replay.ooo"));
  metric "replay.alloc_words_per_insn" (words_per (fun s -> layer_of s = "replay"));
  metric "smpi.run_ranks_s" (sum (named "smpi.run_ranks"));
  metric "smpi.mips" (mips (named "smpi.run_ranks"));
  metric "smpi.alloc_words_per_insn" (words_per (named "smpi.run_ranks"));
  metric "smpi.messages" (float_of_int acc.messages);
  metric "runner.sim_mips" (ratio (float_of_int !insns) !measured_wall /. 1e6);
  metric "report.csv_s" !csv_s;
  metric "ledger.report_write_s" !report_s;
  (* Self time per layer: a span's duration minus its children's. *)
  let self_s = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = layer_of s in
      Hashtbl.replace self_s l (Option.value (Hashtbl.find_opt self_s l) ~default:0.0 +. dur s -. s.child_s))
    all;
  let attributed = ref 0.0 in
  List.iter
    (fun l ->
      let v = Option.value (Hashtbl.find_opt self_s l) ~default:0.0 in
      attributed := !attributed +. v;
      metric ("self." ^ l ^ "_s") v)
    [ "core"; "platform"; "workloads"; "trace"; "replay"; "memo"; "smpi" ];
  metric "traced_s" traced_s;
  metric "untraced_s" untraced_s;
  metric "unattributed_s" (traced_s -. !attributed);
  metric "trace_overhead_s" (traced_s -. untraced_s);
  if List.mem fig2 panels && engine = `Trace then
    metric "serve.codec_us" (codec_us (In_channel.with_open_bin (Filename.concat dir "cli-fig2.csv") In_channel.input_all))

let () =
  match Array.to_list Sys.argv with
  | [ _; "reference" ] -> reference ()
  | [ _; "trace"; wl; dir ] -> trace_run wl dir
  | _ ->
    prerr_endline "usage: layers reference | layers trace WORKLOAD WORKDIR";
    exit 2
