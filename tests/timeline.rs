//! The exported timeline names every operation and flow arrow by its
//! exact 64-bit id, so a timeline can tell any two ops apart.

use std::collections::BTreeSet;

use genima::{run_app_configured, timeline_json, FeatureSet, ObsConfig, RunConfig, Topology};
use genima_apps::app_by_name;

/// Every `"<key>":` number in `text`, parsed as `u64`.
fn printed(text: &str, key: &str) -> Vec<u64> {
    text.match_indices(key)
        .map(|(at, _)| {
            let rest = &text[at + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end]
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("{key} value {:?}: {e}", &rest[..end]))
        })
        .collect()
}

#[test]
fn op_and_flow_ids_survive_export_exactly() {
    let app = app_by_name("FFT").expect("FFT is in the suite");
    let cfg = RunConfig::new(Topology::new(4, 4), FeatureSet::genima()).with_obs(ObsConfig::on());
    let out = run_app_configured(app.as_ref(), &cfg).expect("clean run");
    let spans = &out.obs.spans;
    let ops: BTreeSet<u64> = spans.iter().map(|s| s.op).filter(|&op| op != 0).collect();
    let ids: BTreeSet<u64> = spans.iter().filter_map(|s| s.flow.map(|f| f.id)).collect();
    assert!(
        ops.len() > 100 && !ids.is_empty(),
        "{} ops, {} flow ids",
        ops.len(),
        ids.len()
    );

    let text = timeline_json(spans);
    let text_ops = printed(&text, "\"op\":");
    let text_ids = printed(&text, "\"id\":");
    for op in &text_ops {
        assert!(ops.contains(op), "printed op {op} is no record's op");
    }
    for id in &text_ids {
        assert!(
            ids.contains(id),
            "printed flow id {id} is no record's flow id"
        );
    }
    assert_eq!(text_ops.iter().collect::<BTreeSet<_>>().len(), ops.len());
    assert_eq!(text_ids.iter().collect::<BTreeSet<_>>().len(), ids.len());
}
