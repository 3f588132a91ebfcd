//! The docs' size budgets. Every change starts by reading `CHANGES.md`,
//! so each entry is paid for by every later reader. An entry says what
//! was claimed, the numbers, what moved and what was left out; the detail
//! behind it lives in the commit history. From PR 31 on, an entry — its
//! top-level `- PR N:` bullet and every indented line under it — may take
//! at most [`ENTRY_BUDGET_BYTES`]. `DESIGN.md` may not grow past
//! [`DESIGN_BUDGET_BYTES`]; its target is 45 KB.

/// The most bytes one `CHANGES.md` entry may take.
const ENTRY_BUDGET_BYTES: usize = 1_536;

/// Entries before this PR predate the budget.
const FIRST_BUDGETED_PR: u32 = 31;

/// The most bytes `DESIGN.md` may take: its size when the cap was set.
/// Lower it whenever the document shrinks.
const DESIGN_BUDGET_BYTES: usize = 87_683;

/// `(pr, bytes)` of every `- PR N:` entry of `log`. An entry runs from its
/// bullet to the next line that is neither indented nor blank; each line
/// counts with its newline.
fn entries(log: &str) -> Vec<(u32, usize)> {
    let mut found: Vec<(u32, usize)> = Vec::new();
    let mut open = false;
    for line in log.lines() {
        let pr = line.strip_prefix("- PR ").and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        });
        match (pr, found.last_mut()) {
            (Some(pr), _) => {
                found.push((pr, line.len() + 1));
                open = true;
            }
            (None, Some((_, bytes))) if open && (line.is_empty() || line.starts_with(' ')) => {
                *bytes += line.len() + 1;
            }
            _ => open = false,
        }
    }
    found
}

#[test]
fn entries_count_their_sub_bullets_and_nothing_after_them() {
    let log = "# CHANGES\n\n- PR 30: a\n- PR 31: bc\n  - d\n\n    e\n## Next\n- PR 32: f\n";
    assert_eq!(entries(log), vec![(30, 11), (31, 12 + 6 + 1 + 6), (32, 11)]);
}

#[test]
fn every_budgeted_changes_entry_fits_the_budget() {
    let log = include_str!("../CHANGES.md");
    let all = entries(log);
    let budgeted: Vec<_> = all.iter().filter(|(pr, _)| *pr >= FIRST_BUDGETED_PR).collect();
    assert!(!budgeted.is_empty(), "no entry from PR {FIRST_BUDGETED_PR} on was found");
    let over: Vec<_> = budgeted.iter().filter(|(_, bytes)| *bytes > ENTRY_BUDGET_BYTES).collect();
    assert!(over.is_empty(), "CHANGES.md entries over {ENTRY_BUDGET_BYTES} bytes: {over:?}");
}

#[test]
fn design_doc_fits_its_budget() {
    let bytes = include_str!("../DESIGN.md").len();
    assert!(bytes <= DESIGN_BUDGET_BYTES, "DESIGN.md is {bytes} B, over {DESIGN_BUDGET_BYTES} B");
}
