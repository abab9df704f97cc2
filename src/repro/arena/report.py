"""Arena artifacts: leaderboard, manifest, regenerable figures.

Everything written here except the manifest is a pure function of the
cell results, rendered with fixed formatting and stable tie-breaking, so
re-running the same :class:`~repro.arena.spec.ArenaSpec` reproduces
``leaderboard.{md,csv,json}`` and ``figures/`` byte-identically.  The
manifest carries the measured per-cell wall-clock and is the one
artifact allowed to differ between runs.

The ``figures/`` directory follows the regenerable-figure idiom: the
sweep commits its data once (``cells.json``) and each figure ships as a
self-contained script that rebuilds its rendering -- ASCII always, PNG
when matplotlib is importable -- from that data alone, so figures can be
restyled or re-rendered without re-running the sweep.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Leaderboard columns, in column order, with their md/csv formatting.
#: ``sla_violations`` only exists when the arena ran with a
#: ``target_slowdown`` budget; it is dropped from the rendering
#: otherwise so budget-less leaderboards stay byte-identical to PR-9.
LEADERBOARD_COLUMNS = (
    ("rank", "{}"),
    ("cell_id", "{}"),
    ("policy_label", "{}"),
    ("tco_savings_pct", "{:.2f}"),
    ("saved_dollars_month", "{:.2f}"),
    ("slowdown_pct", "{:.2f}"),
    ("sla_violations", "{}"),
    ("p99_latency_ns", "{:.1f}"),
    ("pages_migrated", "{}"),
    ("thrash", "{}"),
    ("solver_ms", "{:.3f}"),
)


def _columns(rows: list[dict]) -> list[tuple[str, str]]:
    """The columns applicable to these rows (see LEADERBOARD_COLUMNS)."""
    if any("sla_violations" in row for row in rows):
        return list(LEADERBOARD_COLUMNS)
    return [c for c in LEADERBOARD_COLUMNS if c[0] != "sla_violations"]


def _rank_key(row: dict):
    """Most dollars saved first; p99 breaks ties; names make it total."""
    return (
        -row["saved_dollars_month"],
        row["p99_latency_ns"],
        row["policy"],
        row["workload"],
        -1.0 if row["alpha"] is None else row["alpha"],
    )


def leaderboard_rows(results) -> list[dict]:
    """Ranked leaderboard rows from the ``ok`` cells."""
    rows = [dict(res.row) for res in results if res.status == "ok"]
    rows.sort(key=_rank_key)
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def render_markdown(rows: list[dict]) -> str:
    """The leaderboard as a GitHub-flavoured markdown table."""
    columns = _columns(rows)
    headers = [name for name, _ in columns]
    lines = [
        "# Policy arena leaderboard",
        "",
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        cells = [fmt.format(row[name]) for name, fmt in columns]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_csv(rows: list[dict]) -> str:
    """The leaderboard as CSV (same columns and formatting as the md)."""
    columns = _columns(rows)
    lines = [",".join(name for name, _ in columns)]
    for row in rows:
        lines.append(",".join(fmt.format(row[name]) for name, fmt in columns))
    return "\n".join(lines) + "\n"


def render_json(spec, rows: list[dict]) -> str:
    """Full-precision leaderboard + the spec that produced it."""
    return (
        json.dumps(
            {"spec": spec.to_dict(), "leaderboard": rows},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def _manifest_cell(cell) -> dict:
    entry = {
        "cell_id": cell.cell_id,
        "status": cell.status,
        "seed": cell.seed,
        "wall_clock_s": round(cell.wall_s, 3),
        "error": cell.error,
    }
    if cell.invariants:
        entry["invariants"] = dict(cell.invariants)
    return entry


def render_manifest(arena) -> str:
    """Per-cell status manifest (the only wall-clock-bearing artifact)."""
    doc = {
        "command": "python -m repro arena",
        "counts": arena.counts(),
        "wall_clock_s": round(arena.wall_s, 3),
        "spec": arena.spec.to_dict(),
        "cells": [_manifest_cell(cell) for cell in arena.cells],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Regenerable figures
# ---------------------------------------------------------------------------

_FIG_HEADER = '''"""Regenerate this figure from the committed cell data.

Self-contained: reads ``cells.json`` next to this script, prints an
ASCII rendering, and writes a PNG when matplotlib is importable.
Re-running the arena is never required to re-render the figure.

Usage: python {script}
"""

import json
from pathlib import Path

ROWS = json.loads(
    (Path(__file__).parent / "cells.json").read_text()
)["leaderboard"]
'''

_FIG_FRONTIER = _FIG_HEADER.format(script="fig_tco_frontier.py") + '''

def main():
    print("TCO-vs-performance frontier (one point per cell)")
    print(f"{'cell':<28} {'slowdown%':>10} {'tco%':>8} {'$saved/mo':>10}")
    for row in sorted(ROWS, key=lambda r: r["slowdown_pct"]):
        print(
            f"{row['cell_id']:<28} {row['slowdown_pct']:>10.2f} "
            f"{row['tco_savings_pct']:>8.2f} "
            f"{row['saved_dollars_month']:>10.2f}"
        )
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not available; ASCII rendering only)")
        return
    fig, ax = plt.subplots(figsize=(7, 5))
    policies = sorted({row["policy"] for row in ROWS})
    for policy in policies:
        pts = [r for r in ROWS if r["policy"] == policy]
        ax.scatter(
            [p["slowdown_pct"] for p in pts],
            [p["tco_savings_pct"] for p in pts],
            label=policy,
        )
    ax.set_xlabel("slowdown vs all-DRAM (%)")
    ax.set_ylabel("TCO savings (%)")
    ax.set_title("Policy arena: TCO-vs-performance frontier")
    ax.legend()
    out = Path(__file__).parent / "tco_frontier.png"
    fig.savefig(out, dpi=150, bbox_inches="tight")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
'''

_FIG_THRASH = _FIG_HEADER.format(script="fig_thrash.py") + '''

def main():
    print("Promote/demote thrash per cell (repro_arena_thrash_total)")
    rows = sorted(ROWS, key=lambda r: (-r["thrash"], r["cell_id"]))
    width = max((r["thrash"] for r in rows), default=0) or 1
    for row in rows:
        bar = "#" * round(40 * row["thrash"] / width)
        print(f"{row['cell_id']:<28} {row['thrash']:>6}  {bar}")
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not available; ASCII rendering only)")
        return
    fig, ax = plt.subplots(figsize=(7, 0.4 * len(rows) + 2))
    ax.barh([r["cell_id"] for r in rows], [r["thrash"] for r in rows])
    ax.invert_yaxis()
    ax.set_xlabel("thrash count (migrations reversed within the window)")
    ax.set_title("Policy arena: reactive ping-pong cost")
    out = Path(__file__).parent / "thrash.png"
    fig.savefig(out, dpi=150, bbox_inches="tight")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
'''

#: Figure scripts written into ``figures/`` (name -> source).
FIGURE_SCRIPTS = {
    "fig_tco_frontier.py": _FIG_FRONTIER,
    "fig_thrash.py": _FIG_THRASH,
}


def write_outputs(out_dir, arena) -> dict:
    """Write every arena artifact; returns ``{artifact: Path}``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = leaderboard_rows(arena.cells)
    paths = {
        "leaderboard.md": out / "leaderboard.md",
        "leaderboard.csv": out / "leaderboard.csv",
        "leaderboard.json": out / "leaderboard.json",
        "manifest.json": out / "manifest.json",
    }
    paths["leaderboard.md"].write_text(render_markdown(rows))
    paths["leaderboard.csv"].write_text(render_csv(rows))
    paths["leaderboard.json"].write_text(render_json(arena.spec, rows))
    paths["manifest.json"].write_text(render_manifest(arena))
    figures = out / "figures"
    figures.mkdir(exist_ok=True)
    cells_json = figures / "cells.json"
    cells_json.write_text(render_json(arena.spec, rows))
    paths["figures/cells.json"] = cells_json
    for name, source in FIGURE_SCRIPTS.items():
        script = figures / name
        script.write_text(source)
        paths[f"figures/{name}"] = script
    return paths
