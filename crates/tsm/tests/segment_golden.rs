//! Golden bytes of the segment formats, over one series with one block per
//! value kind (float, integer, boolean, text) and one block written without
//! a summary (`present = 0`).
//!
//! - `LMSTSM3` is what the writer writes: the five blocks in one frame.
//! - `LMSTSM2` is what data directories written before it hold: one frame
//!   per block. It stays readable, and a compaction rewrites it as
//!   `LMSTSM3`.
//!
//! Every data directory on disk is these bytes, so a test here that fails
//! is a format change, not a test to update.

use lms_lineproto::FieldValue::{Boolean, Float, Integer, Text};
use lms_tsm::engine::list_segment_files;
use lms_tsm::segment::{scan_segment, write_segment, MAGIC};
use lms_tsm::{BlockEntry, SealedBlock, SeriesId, TsmConfig, TsmEngine};
use lms_util::scratch::ScratchDir;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The `LMSTSM3` segment file of [`entries`]: the magic, then one frame —
/// the series identity once, then per field its name, a block count of
/// one and the block.
const GOLDEN: &[&str] = &[
    "4c4d5354534d330a",
    // Frame header, then the identity: key, measurement, one tag.
    "4f0100003a7deb230b006370752c686f73743d6e31030063707501000400686f737402006e31",
    // Per field: name, one block, its varint header, bytes and footer.
    concat!(
        "01006601011419031c01000314140a153fe0000000000000c06c00b83e804d99999999999a0101cd",
        "cccccccccce4bf295c8fc2f528fd3f000000000000f4bf000000000000e03f00000000000000e03f",
        "009a9999999999b93f",
    ),
    concat!(
        "01006901021414030e0101031414000514f2ffffffff3f01010040000000007042000000000000f0",
        "4400000000000008c00000000000007042010501808080808040",
    ),
    concat!(
        "0100620103140a02060102021414800101000000000000f03f000000000000f03f00000000000000",
        "00000000000000f03f02010200",
    ),
    concat!(
        "0100740104140a0218010302141402096a6f6220737461727405c3bc6ec3af000101000000000000",
        "0000000000000000000000000000000000f07f000000000000f0ff03096a6f622073746172740305",
        "c3bc6ec3af",
    ),
    "0100780105140a0202dead00",
];

/// The `LMSTSM2` segment file of [`entries`]: the magic, then one frame per
/// entry, each with its own fixed-width header and copy of the identity.
const GOLDEN_V2: &[&str] = &[
    "4c4d5354534d320a",
    concat!(
        "91000000013bd26701000000000000000a000000000000002300000000000000030000000b006370",
        "752c686f73743d6e31030063707501000400686f737402006e310100661c00000001000314140a15",
        "3fe0000000000000c06c00b83e804d99999999999a0101cdcccccccccce4bf295c8fc2f528fd3f00",
        "0000000000f4bf000000000000e03f00000000000000e03f009a9999999999b93f",
    ),
    concat!(
        "7a0000003629a9f302000000000000000a000000000000001e00000000000000030000000b006370",
        "752c686f73743d6e31030063707501000400686f737402006e310100690e00000001010314140005",
        "14f2ffffffff3f01010040000000007042000000000000f04400000000000008c000000000000070",
        "42010501808080808040",
    ),
    concat!(
        "6d00000076638b7f03000000000000000a000000000000001400000000000000020000000b006370",
        "752c686f73743d6e31030063707501000400686f737402006e310100620600000001020214148001",
        "01000000000000f03f000000000000f03f0000000000000000000000000000f03f02010200",
    ),
    concat!(
        "8d00000069eda8f904000000000000000a000000000000001400000000000000020000000b006370",
        "752c686f73743d6e31030063707501000400686f737402006e310100741800000001030214140209",
        "6a6f6220737461727405c3bc6ec3af00010100000000000000000000000000000000000000000000",
        "00f07f000000000000f0ff03096a6f622073746172740305c3bc6ec3af",
    ),
    concat!(
        "4400000099dd51ab05000000000000000a000000000000001400000000000000020000000b006370",
        "752c686f73743d6e31030063707501000400686f737402006e3101007802000000dead00",
    ),
];

fn entries() -> Vec<BlockEntry> {
    let series = Arc::new(SeriesId {
        series_key: "cpu,host=n1".into(),
        measurement: "cpu".into(),
        tags: vec![("host".into(), "n1".into())],
    });
    let entry = |field: &str, block: SealedBlock| BlockEntry {
        series: series.clone(),
        field: field.into(),
        block: Arc::new(block),
    };
    let floats = [(10, Float(0.5)), (20, Float(-1.25)), (35, Float(0.1))];
    let integers = [(10, Integer(-3)), (20, Integer(7)), (30, Integer(1 << 40))];
    let booleans = [(10, Boolean(true)), (20, Boolean(false))];
    let texts = [(10, Text("job start".into())), (20, Text("ünï".into()))];
    vec![
        entry("f", SealedBlock::seal(1, &floats)),
        entry("i", SealedBlock::seal(2, &integers)),
        entry("b", SealedBlock::seal(3, &booleans)),
        entry("t", SealedBlock::seal(4, &texts)),
        // Written without a summary, as a corrupt block is.
        entry("x", SealedBlock::from_parts(5, 10, 20, 2, vec![0xde, 0xad], None)),
    ]
}

/// The file name a segment of partition 0 carries in an engine directory.
fn segment_path(dir: &Path) -> PathBuf {
    dir.join("seg-0-0000000000000000.tsm")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(parts: &[&str]) -> Vec<u8> {
    let text = parts.concat();
    (0..text.len()).step_by(2).map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap()).collect()
}

fn write(path: &Path, entries: &[BlockEntry]) -> Vec<u8> {
    write_segment(path, &entries.iter().collect::<Vec<_>>()).unwrap();
    std::fs::read(path).unwrap()
}

/// Asserts that `got` holds the blocks of [`entries`], in their order.
fn assert_blocks(got: &[BlockEntry]) {
    let want = entries();
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got.series, want.series);
        assert_eq!(got.field, want.field);
        let (g, w) = (&got.block, &want.block);
        assert_eq!((g.gen, g.min_ts, g.max_ts, g.count), (w.gen, w.min_ts, w.max_ts, w.count));
        assert_eq!(g.bytes(), w.bytes());
        assert_eq!(g.decode(), w.decode());
        assert_eq!(g.summary(), w.summary());
    }
}

#[test]
fn segment_frames_match_the_golden_bytes() {
    let dir = ScratchDir::new("lms-tsm-golden").unwrap();
    let bytes = write(&segment_path(dir.path()), &entries());
    assert_eq!(hex(&bytes), GOLDEN.concat(), "the LMSTSM3 bytes changed");
}

#[test]
fn golden_segment_reads_back_and_rewrites_identically() {
    // Decoding rebuilds every footer field (and the absent one) exactly:
    // writing what was read reproduces the file byte for byte.
    let dir = ScratchDir::new("lms-tsm-golden").unwrap();
    let path = segment_path(dir.path());
    let golden = unhex(GOLDEN);
    std::fs::write(&path, &golden).unwrap();
    let back = scan_segment(&path).unwrap().entries;
    assert_blocks(&back);
    assert!(back.iter().all(|e| Arc::ptr_eq(&e.series, &back[0].series)), "one identity per frame");
    assert_eq!(write(&path, &back), golden);
}

#[test]
fn v2_golden_segment_reads_back_and_rewrites_as_v3() {
    let dir = ScratchDir::new("lms-tsm-golden").unwrap();
    let path = segment_path(dir.path());
    std::fs::write(&path, unhex(GOLDEN_V2)).unwrap();
    let scan = scan_segment(&path).unwrap();
    assert!(scan.is_clean());
    assert_blocks(&scan.entries);
    assert_eq!(write(&path, &scan.entries), unhex(GOLDEN));
}

#[test]
fn a_v2_data_directory_opens_and_compaction_upgrades_it() {
    let dir = ScratchDir::new("lms-tsm-golden").unwrap();
    let v2 = unhex(GOLDEN_V2);
    std::fs::write(segment_path(dir.path()), &v2).unwrap();
    let cfg = || TsmConfig::new(dir.path());

    let (engine, recovered) = TsmEngine::open(cfg()).unwrap();
    assert_eq!(recovered.corrupt_frames, 0);
    assert_blocks(&recovered.blocks);
    assert_eq!(engine.next_gen(), 6, "generations resume past the old file's");

    // A major compaction: every partition rewritten. The blocks are
    // already compact, so they are carried over as they are.
    let mut rewrite = engine.begin_rewrite(None);
    rewrite.write(&recovered.blocks).unwrap();
    rewrite.commit().unwrap();
    drop(engine);

    let (_engine, reopened) = TsmEngine::open(cfg()).unwrap();
    assert_blocks(&reopened.blocks);
    let files = list_segment_files(dir.path());
    assert_eq!(files.len(), 1, "the old file is gone");
    let bytes = std::fs::read(&files[0]).unwrap();
    assert!(bytes.starts_with(MAGIC), "only LMSTSM3 files remain");
    assert_eq!(hex(&bytes), GOLDEN.concat());
    assert!(bytes.len() < v2.len());
}
