//! Golden text of tier rows: the exact line protocol a numeric window and a
//! text window serialise to. Tier databases on disk and agents' 1 m streams
//! on the wire are these lines, so a test here that fails is a schema
//! change, not a test to update.

use lms_lineproto::Point;
use lms_rollup::WindowAggregator;

const S: i64 = 1_000_000_000;

#[test]
fn numeric_and_text_windows_render_the_golden_lines() {
    let mut agg = WindowAggregator::minute();
    // A duplicate timestamp (2 s) and every numeric kind.
    let sweeps = [(1, 0.1, 3, true), (2, 0.2, -4, false), (2, 0.7, 9, true), (59, 0.25, 0, false)];
    for (t, busy, n, up) in sweeps {
        let mut p = Point::new("cpu");
        p.add_tag("host", "h1");
        p.add_field("busy", busy).add_field("n", n as i64).add_field("up", up);
        agg.push(&p, t * S);
    }
    for (t, msg) in [(61, "job start"), (75, "say \"hi\""), (90, "job end")] {
        let mut p = Point::new("events");
        p.add_tag("host", "h1").add_field("msg", msg);
        agg.push(&p, t * S);
    }
    let lines: Vec<String> = agg.flush().iter().map(Point::to_line).collect();
    assert_eq!(lines, GOLDEN);
}

const GOLDEN: [&str; 2] = [
    concat!(
        "cpu,host=h1 ",
        "busy__count=4i,busy__sum=1.25,busy__sumsq=0.6024999999999999,busy__min=0.1,busy__max=0.7,",
        "busy__first=0.1,busy__first_ts=1000000000i,busy__last=0.25,busy__last_ts=59000000000i,",
        "n__count=4i,n__sum=8,n__sumsq=106,n__min=-4,n__max=9,",
        "n__first=3i,n__first_ts=1000000000i,n__last=0i,n__last_ts=59000000000i,",
        "up__count=4i,up__sum=2,up__sumsq=2,up__min=0,up__max=1,",
        "up__first=true,up__first_ts=1000000000i,up__last=false,up__last_ts=59000000000i ",
        "0",
    ),
    concat!(
        "events,host=h1 ",
        "msg__count=3i,msg__first=\"job start\",msg__first_ts=61000000000i,",
        "msg__last=\"job end\",msg__last_ts=90000000000i ",
        "60000000000",
    ),
];
