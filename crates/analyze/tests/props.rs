//! Property-based invariants of the reporting layer: suppression
//! pragmas cover exactly the lines they are written against.

use proptest::prelude::*;
use psc_analyze::analyze_source;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Line-pragma suppression: a job-server file of `Cluster::new()`
    /// calls, a random subset carrying `// psc-analyze: allow(S001)` on
    /// the line above — exactly the unpragma'd calls fire, at their own
    /// lines.
    #[test]
    fn allow_pragmas_cover_exactly_their_lines(
        pattern in proptest::collection::vec(0u32..2, 1..20),
    ) {
        let suppressed: Vec<bool> = pattern.iter().map(|p| *p == 1).collect();
        let mut src = String::from("fn f() {\n");
        let mut expected: Vec<u32> = Vec::new();
        let mut line = 1u32;
        for s in &suppressed {
            if *s {
                src.push_str("    // psc-analyze: allow(S001)\n");
                line += 1;
            }
            src.push_str("    let _c = Cluster::new();\n");
            line += 1;
            if !*s {
                expected.push(line);
            }
        }
        src.push_str("}\n");
        let fired: Vec<u32> = analyze_source("crates/serve/src/x.rs", &src)
            .into_iter()
            .filter(|f| f.rule == "S001")
            .map(|f| f.line)
            .collect();
        prop_assert_eq!(fired, expected);
    }
}
