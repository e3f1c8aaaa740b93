//! Seeds A1: a syntactically valid, fully justified `allow(…)` whose
//! covered lines produce no finding for the named rule — a dead audit
//! entry that must itself be flagged.

// mp-lint: allow(L1): both sides are exact small integers in f64 (stale: no float == below)
pub fn add(a: u32, b: u32) -> u32 {
    a + b
}

// A *live* suppression for contrast — it covers a real finding, so A1
// must stay quiet about it:

pub fn live(v: Option<u32>) -> u32 {
    // mp-lint: allow(L3): fixture demonstrates a live allow staying un-flagged
    v.unwrap()
}

// Partially stale: L7 fires on the covered line (untracked TODO), L1
// never does — A1 must name only the dead half of the list.

pub fn half_live() {
    // mp-lint: allow(L1, L7): scaffolding note tracked informally in this fixture
    // TODO: make this fixture even meaner
}
