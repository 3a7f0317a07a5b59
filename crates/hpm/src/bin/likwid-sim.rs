//! `likwid-sim` — the standalone command-line face of the HPM substrate,
//! mirroring the LIKWID tools the paper's stack builds on:
//!
//! ```text
//! likwid-sim topology                      # likwid-topology
//! likwid-sim groups                        # likwid-perfctr -a
//! likwid-sim group FLOPS_DP                # show a group file
//! likwid-sim perfctr -g MEM -w stream -t 2 [-c S0:0-9]   # likwid-perfctr
//! ```
//!
//! Workload presets for `-w`: `dgemm`, `stream`, `balanced`, `idle`.

use lms_hpm::groups::{builtin, builtin_text, BUILTIN_GROUPS};
use lms_hpm::perfmon::Perfmon;
use lms_hpm::simulate::{Simulator, WorkloadPreset};
use lms_topology::{CpuSet, Topology};
use lms_util::args::Args;
use lms_util::{outln, Error, Result};
use std::time::Duration;

const USAGE: &str = "usage: likwid-sim <topology | groups | group NAME | perfctr [-g GROUP] \
                     [-w dgemm|stream|balanced|idle] [-t SECONDS] [-c CPUSET]>";

fn topology_cmd(topo: &Topology) {
    outln!("--------------------------------------------------------------");
    outln!("CPU name:\t{} (simulated)", topo.name());
    outln!("CPU clock:\t{:.2} GHz", topo.nominal_hz() / 1e9);
    outln!("Sockets:\t\t{}", topo.num_sockets());
    outln!("Cores per socket:\t{}", topo.cores_per_socket());
    outln!("Threads per core:\t{}", topo.threads_per_core());
    outln!("Hardware threads:\t{}", topo.num_hw_threads());
    outln!("NUMA domains:\t\t{}", topo.num_numa_domains());
    outln!("Peak DP:\t\t{:.1} GFLOP/s", topo.peak_flops_dp() / 1e9);
    outln!("Peak mem bw:\t\t{:.1} GB/s", topo.peak_mem_bw() / 1e9);
    outln!("--------------------------------------------------------------");
    outln!("{:<6} {:<8} {:<6} {:<5} {:<5}", "HWT", "socket", "core", "smt", "numa");
    for t in topo.hw_threads() {
        outln!("{:<6} {:<8} {:<6} {:<5} {:<5}", t.id, t.socket, t.core, t.smt, t.numa);
    }
    outln!("--------------------------------------------------------------");
    outln!("Caches:");
    for c in topo.caches() {
        outln!(
            "  {:?}: {} per {} core(s), {}-byte lines",
            c.kind,
            lms_util::fmt::bytes(c.size_bytes),
            c.shared_by_cores,
            c.line_bytes
        );
    }
}

fn groups_cmd(topo: &Topology) {
    outln!("{:<14} Description", "Group");
    outln!("{:-<60}", "");
    for name in BUILTIN_GROUPS {
        let g = builtin(name, topo).expect("builtin parses");
        outln!("{name:<14} {}", g.short());
    }
}

fn workload(name: &str) -> Result<WorkloadPreset, &'static str> {
    Ok(match name {
        "dgemm" => WorkloadPreset::ComputeBound,
        "stream" => WorkloadPreset::MemoryBound,
        "balanced" => WorkloadPreset::Balanced,
        "idle" => WorkloadPreset::Idle,
        _ => return Err("expected dgemm, stream, balanced or idle"),
    })
}

fn perfctr_cmd(topo: &Topology, mut args: Args) -> Result<()> {
    let mut group_name = "FLOPS_DP".to_string();
    let mut preset = WorkloadPreset::Balanced;
    let mut seconds = 1.0f64;
    let mut cpuset: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-g" => group_name = args.value()?,
            "-w" => preset = args.parse_with(workload)?,
            "-t" => seconds = args.parse()?,
            "-c" => cpuset = Some(args.value()?),
            _ => return Err(args.unknown()),
        }
    }

    let threads = match &cpuset {
        Some(expr) => CpuSet::parse(expr, topo)?,
        None => CpuSet::from_ids(topo.primary_threads()),
    };

    let mut sim = Simulator::new(topo, 42);
    sim.assign(threads.iter(), preset.model(topo));
    let mut pm = Perfmon::new(topo.clone());
    pm.set_threads(threads.ids().to_vec())?;
    pm.add_group(builtin(&group_name, topo)?)?;
    pm.start(&sim);
    sim.advance(Duration::from_secs_f64(seconds));
    let m = pm.stop_and_read(&sim)?;

    outln!(
        "Group {group_name}, workload {preset:?}, {seconds} s on cpus {}",
        threads.to_compact_string()
    );
    outln!("{:-<72}", "");
    // Raw counters: first 4 measured threads (likwid's table gets wide fast).
    let shown = m.threads().iter().take(4).copied().collect::<Vec<_>>();
    let mut header = format!("{:<34}", "counter / event");
    for t in &shown {
        header.push_str(&format!("{:>12}", format!("HWT {t}")));
    }
    outln!("{header}");
    let group = builtin(&group_name, topo)?;
    for (counter, event) in group.events() {
        let values = m.counter_values(&counter.to_string()).expect("counter measured");
        let mut row = format!("{:<34}", format!("{counter} {event}"));
        for (i, _) in shown.iter().enumerate() {
            row.push_str(&format!("{:>12.3e}", values[i]));
        }
        outln!("{row}");
    }
    outln!("{:-<72}", "");
    outln!("{:<44}{:>14}", "derived metric", "aggregate");
    for name in m.metric_names().map(str::to_string).collect::<Vec<_>>() {
        let v = m.metric_aggregate(&name)?;
        outln!("{name:<44}{v:>14.4}");
    }
    Ok(())
}

fn run() -> Result<()> {
    let mut args = Args::from_env();
    let topo = Topology::preset_dual_socket_10c();
    let command = args.next();
    let group = match command.as_deref() {
        Some("perfctr") => return perfctr_cmd(&topo, args),
        Some("group") => Some(args.value()?),
        Some("topology" | "groups" | "--help" | "-h") => None,
        Some(_) => return Err(args.unknown()),
        None => return Err(Error::config(format!("a command is needed\n{USAGE}"))),
    };
    if args.next().is_some() {
        return Err(args.unknown());
    }
    match (command.as_deref(), group) {
        (_, Some(name)) => {
            let text =
                builtin_text(&name).ok_or_else(|| Error::not_found(format!("group `{name}`")))?;
            outln!("{text}");
        }
        (Some("topology"), _) => topology_cmd(&topo),
        (Some("groups"), _) => groups_cmd(&topo),
        _ => outln!("{USAGE}"),
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("likwid-sim: {e}");
        std::process::exit(1);
    }
}
