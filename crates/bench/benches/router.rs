//! The router's tag store: lookup hit and miss, and a job's start+end
//! signal pair. What enrichment costs a written line is measured end to
//! end by `benchmark/` (`stack_cpu_us_per_point` on `app_burst` and
//! `fleet_saturate`; EXPERIMENTS.md § C2).

use criterion::{criterion_group, criterion_main, Criterion};
use lms_router::{JobSignal, TagStore};
use std::hint::black_box;

fn bench_tagstore(c: &mut Criterion) {
    let mut group = c.benchmark_group("router/tagstore");
    let mut store = TagStore::new();
    for j in 0..128 {
        store.job_start(&JobSignal {
            job_id: format!("{j}"),
            user: format!("user{j}"),
            hosts: (0..4).map(|h| format!("h{}", j * 4 + h)).collect(),
            extra_tags: vec![("queue".into(), "batch".into())],
        });
    }
    group.bench_function("lookup_hit", |b| {
        b.iter(|| black_box(store.job_tags(black_box("h200")).is_some()))
    });
    group.bench_function("lookup_miss", |b| {
        b.iter(|| black_box(store.job_tags(black_box("unknown-host")).is_some()))
    });
    group.bench_function("signal_start_end", |b| {
        let signal = JobSignal {
            job_id: "bench".into(),
            user: "u".into(),
            hosts: vec!["hx1".into(), "hx2".into(), "hx3".into(), "hx4".into()],
            extra_tags: vec![],
        };
        b.iter(|| {
            store.job_start(black_box(&signal));
            store.job_end("bench");
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tagstore);
criterion_main!(benches);
