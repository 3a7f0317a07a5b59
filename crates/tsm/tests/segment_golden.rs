//! Golden bytes of the `LMSTSM2` segment format: one frame per value kind
//! (float, integer, boolean, text) and one entry written without a summary
//! (`present = 0`). Every data directory on disk is these bytes, so a test
//! here that fails is a format change, not a test to update.

use lms_lineproto::FieldValue::{Boolean, Float, Integer, Text};
use lms_tsm::segment::{read_segment, write_segment};
use lms_tsm::{BlockEntry, SealedBlock, SeriesId};
use std::path::PathBuf;
use std::sync::Arc;

/// The segment file of [`entries`]: the magic, then one frame per entry.
const GOLDEN: &[&str] = &[
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

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lms-tsm-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("seg-0-0000000000000000.tsm")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn write(path: &PathBuf, entries: &[BlockEntry]) -> Vec<u8> {
    write_segment(path, &entries.iter().collect::<Vec<_>>(), None).unwrap();
    std::fs::read(path).unwrap()
}

#[test]
fn segment_frames_match_the_golden_bytes() {
    let path = tmp("write");
    let bytes = write(&path, &entries());
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    assert_eq!(hex(&bytes), GOLDEN.concat(), "the LMSTSM2 bytes changed");
}

#[test]
fn golden_segment_reads_back_and_rewrites_identically() {
    // Decoding rebuilds every footer field (and the absent one) exactly:
    // writing what was read reproduces the file byte for byte.
    let text = GOLDEN.concat();
    let golden: Vec<u8> = (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect();
    let path = tmp("read");
    std::fs::write(&path, &golden).unwrap();
    let back = read_segment(&path).unwrap();
    assert_eq!(back.len(), entries().len());
    for (got, want) in back.iter().zip(entries()) {
        assert_eq!(got.block.decode(), want.block.decode());
        assert_eq!(got.block.summary(), want.block.summary());
    }
    let again = write(&path, &back);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    assert_eq!(again, golden);
}
