#!/usr/bin/env python3
"""List config knobs that only tests set, and fail on any not reviewed.

A knob is a data member of a `struct ...Config` in a src/ header. It counts
as set when some src/exp/, bench/, examples/ or perfbench/ file writes it:
by assignment (`.f =`, `.f +=`), brace init (`.f{`), a nested member set
(`.f.x = ...` sets `f`), or a sweep-axis lambda
(`-> auto & { return s.x.f; }`). Tests do not count, so a hit is a knob
only tests turn. It is a word-match heuristic: review every new hit.

REVIEWED lists the hits that were reviewed and kept on purpose (ROADMAP,
"Kept on purpose"). The scan prints every hit and exits 1 if any is not
on that list. Run from the repository root:

    python3 tools/unset_knob_scan.py
"""
import fnmatch
import glob
import re
import sys

# Reviewed hits, as fnmatch patterns over "header: Struct::member".
REVIEWED = {
    # Model constants every caller keeps at the paper's value.
    "*: ClusterConfig::subgroup_elems": "model constant",
    "*: TrainConfig::batch_size": "model constant",
    "*: TrainConfig::seq_len": "model constant",
    "*: SystemConfig::nic_*": "model constant",
    "*: ServeConfig::weight_wire_fraction":
        "model constant; hashed and in every serving JSON",
    # Link degradation: ObsPinned.ServeFailover24reqMatchesTrajectory arms
    # it, and it is the only driver of FlowNetwork::linkCapacityChanged.
    "*: FaultConfig::degrade_*": "safety path kept for its pinned test",
    # A plumbing copy that src/ fills from ServeConfig.
    "*: KvSpaceConfig::*": "plumbing copy",
    # Class-private configs whose owners always run on defaults.
    "src/optim/loss_scaler.h: Config::*": "private config on defaults",
    "src/nn/trainer.h: Config::*": "private config on defaults",
}

SETTERS = ("src/exp", "bench", "examples", "perfbench")
MEMBER = re.compile(r"^\s*(?!return\b|using\b|static\b|friend\b)"
                    r"[\w:<>,]+(?:<[^;{}]*>)?[\s*&]+(\w+)\s*(?:=[^;]*)?;",
                    re.M)


def struct_body(text, start):
    """The text of the struct opened at @p start, at its own brace depth."""
    depth, i = 1, start
    while depth:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    flat, depth = [], 0
    for ch in text[start:i - 1]:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            continue
        if depth == 0:
            flat.append(ch)
    return "".join(flat)


def hits():
    files = [open(p, encoding="utf-8").read()
             for top in SETTERS
             for p in glob.glob(f"{top}/**/*", recursive=True)
             if p.endswith((".h", ".cc", ".cpp"))]
    for header in sorted(glob.glob("src/**/*.h", recursive=True)):
        text = re.sub(r"/\*.*?\*/|//[^\n]*", "",
                      open(header, encoding="utf-8").read(), flags=re.S)
        for m in re.finditer(r"\bstruct\s+(\w*Config)\s*\{", text):
            for name in MEMBER.findall(struct_body(text, m.end())):
                sets = re.compile(
                    rf"\.{name}\s*(?:[-+*/]?=(?!=)|\{{|\.)|"
                    rf"auto\s*&\s*\{{\s*return\s+[\w.]*\.{name}\s*;")
                if not any(sets.search(t) for t in files):
                    yield f"{header}: {m.group(1)}::{name}"


def main():
    unreviewed = []
    for hit in hits():
        reason = next((r for p, r in REVIEWED.items()
                       if fnmatch.fnmatchcase(hit, p)), None)
        if reason is None:
            print(f"UNREVIEWED {hit}")
            unreviewed.append(hit)
        else:
            print(f"reviewed   {hit} ({reason})")
    if unreviewed:
        print(f"{len(unreviewed)} knob(s) only tests set: delete them, set "
              "them from a scenario, example or perfbench workload, or "
              "review them into REVIEWED with a reason")
        return 1
    print("every unset knob is a reviewed false positive")
    return 0


if __name__ == "__main__":
    sys.exit(main())
