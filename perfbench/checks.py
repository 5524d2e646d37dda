"""Output checks for the perfbench workloads.

Every check here is computed apart from the program under test:

* golden CSVs (results/*.csv, remade by `make update-golden`) compared byte
  for byte;
* the paper's bands and shape assertions (results/paper-expectations.json),
  re-evaluated here from the emitted CSV;
* fig1/fig2 relative speedups recomputed from Seq-engine cycles (the
  `layers reference` harness feeds the lazy streams straight into a SoC);
* memoized estimates held to their declared error bound against those
  exact cycles;
* served replies compared byte for byte with the first (cold) reply.

Each function returns failure strings; an empty list means the check held.
"""

import math

UPDATE_GOLDEN = "make update-golden"


def cell_f(v):
    """Report.Table.cell_f: the number format of every CSV cell."""
    if float(v).is_integer() and abs(v) < 1e6:
        return "%.0f" % v
    if abs(v) >= 100.0:
        return "%.1f" % v
    if abs(v) >= 1.0:
        return "%.3f" % v
    return "%.4f" % v


def _quote(s):
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def to_csv(header, rows):
    """Report.Table.to_csv for a header and rows of string cells."""
    lines = [header] + rows
    return "\n".join(",".join(_quote(c) for c in row) for row in lines) + "\n"


def parse_csv(text):
    """Figure CSV -> (series labels, [(x, {series: float})]).  Raises
    ValueError on a malformed table."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    if not header or header[0] != "x":
        raise ValueError("header does not start with x")
    series = header[1:]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError("row %r has %d cells, header has %d" % (line, len(cells), len(header)))
        rows.append((cells[0], {s: float(v) for s, v in zip(series, cells[1:])}))
    return series, rows


# ----------------------------------------------------------- reference


class Reference:
    """Parsed output of `layers reference`."""

    def __init__(self, text):
        self.category = {}
        self.panels = {}  # panel -> [platform, ...], hardware first
        self.seq = {}  # (panel, platform, kernel) -> (cycles, freq_hz)
        self.memo = {}  # (panel, platform, kernel) -> (est_cycles, bound)
        self.kernels = {}  # panel -> [kernel, ...] in row order
        for line in text.splitlines():
            f = line.split("\t")
            if f[0] == "category":
                self.category[f[1]] = f[2]
            elif f[0] == "panel":
                self.panels[f[1]] = f[2].split(",")
            elif f[0] == "seq":
                self.seq[(f[1], f[2], f[3])] = (int(f[4]), float(f[5]))
                ks = self.kernels.setdefault(f[1], [])
                if f[3] not in ks:
                    ks.append(f[3])
            elif f[0] == "memo":
                self.memo[(f[1], f[2], f[3])] = (int(f[4]), float(f[5]))

    def seconds(self, panel, platform, kernel, cycles):
        return cycles / self.seq[(panel, platform, kernel)][1]

    def speedup_csv(self, panel, cycles_of):
        """The panel's CSV with every cell t_hw / t_sim from [cycles_of]."""
        hw, sims = self.panels[panel][0], self.panels[panel][1:]
        rows = []
        for k in self.kernels[panel]:
            t_hw = self.seconds(panel, hw, k, cycles_of(panel, hw, k))
            rows.append([k] + [cell_f(t_hw / self.seconds(panel, s, k, cycles_of(panel, s, k))) for s in sims])
        return to_csv(["x"] + sims, rows)

    def seq_csv(self, panel):
        return self.speedup_csv(panel, lambda p, s, k: self.seq[(p, s, k)][0])

    def memo_csv(self, panel):
        return self.speedup_csv(panel, lambda p, s, k: self.memo[(p, s, k)][0])

    def memo_runs(self, panel):
        """[(platform, kernel)] in grid order (kernel-major)."""
        return [(s, k) for k in self.kernels[panel] for s in self.panels[panel]]


# -------------------------------------------------------------- checks


def check_golden(panel, got, golden):
    if got == golden:
        return []
    return ["%s: output differs from the golden results/%s.csv (remade by `%s`)" % (panel, panel, UPDATE_GOLDEN)]


def check_bytes(what, got, want):
    if got == want:
        return []
    return ["%s: %d-byte output differs from the expected %d bytes" % (what, len(got), len(want))]


def _geomean(vs):
    return math.exp(sum(math.log(v) for v in vs) / len(vs))


def check_expectations(panel, text, expectations, category):
    """Every band and shape assertion the paper expectations hold for
    [panel], evaluated on the emitted CSV [text]."""
    spec = next((f for f in expectations["figures"] if f["id"] == panel), None)
    if spec is None:
        return ["%s: no paper expectations" % panel]
    try:
        series, rows = parse_csv(text)
    except (ValueError, IndexError) as e:
        return ["%s: malformed CSV (%s)" % (panel, e)]
    table = dict(rows)
    xs = [x for x, _ in rows]
    fails = []

    def points(s):
        return [(x, table[x][s]) for x in xs] if s in series else None

    for b in spec.get("bands", []):
        for x in [b["x"]] if "x" in b else xs:
            for s in [b["series"]] if "series" in b else series:
                v = table.get(x, {}).get(s)
                if v is None or not b["min"] <= v <= b["max"]:
                    fails.append("%s: band %s/%s = %s outside [%g, %g]" % (panel, s, x, v, b["min"], b["max"]))
    for sh in spec.get("shapes", []):
        kind = sh["kind"]
        if kind == "all-below":
            for s in sh["series"]:
                pts = points(s)
                if pts is None:
                    fails.append("%s: all-below names missing series %s" % (panel, s))
                    continue
                for x, v in pts:
                    if x not in sh.get("except", []) and v >= sh["threshold"]:
                        fails.append("%s: all-below %g broken by %s/%s = %g" % (panel, sh["threshold"], s, x, v))
        elif kind == "category-geomean":
            pts = points(sh["series"]) or []
            vs = [v for x, v in pts if category.get(x) == sh["category"]]
            g = _geomean(vs) if vs else float("nan")
            if not vs or not sh["min"] <= g <= sh["max"]:
                fails.append("%s: %s %s geomean %g outside [%g, %g]" % (panel, sh["series"], sh["category"], g, sh["min"], sh["max"]))
        elif kind == "series-leq":
            lo, hi = points(sh["lo"]), points(sh["hi"])
            if not lo or not hi:
                fails.append("%s: series-leq names a missing series" % panel)
                continue
            lo_g, hi_g = _geomean([v for _, v in lo]), _geomean([v for _, v in hi])
            if not lo_g <= hi_g * (1.0 + sh.get("tolerance", 0.0)):
                fails.append("%s: geomean %s=%g > %s=%g" % (panel, sh["lo"], lo_g, sh["hi"], hi_g))
        elif kind == "closest-to-hw":
            contenders = [sh["winner"]] + sh["rivals"]
            if any(points(s) is None for s in contenders):
                fails.append("%s: closest-to-hw names a missing series" % panel)
                continue

            def dist(s):
                return sum(abs(math.log(v)) for _, v in points(s)) / len(xs)

            beaten = [r for r in sh["rivals"] if dist(sh["winner"]) >= dist(r)]
            if beaten:
                fails.append("%s: %s is not closer to hardware than %s" % (panel, sh["winner"], ", ".join(beaten)))
        else:
            fails.append("%s: unknown shape kind %s" % (panel, kind))
    return fails


def check_memo_run(ref, panel, platform, kernel, est=None, bound=None):
    """|memo - exact| within the declared bound."""
    m_est, m_bound = ref.memo[(panel, platform, kernel)]
    est = m_est if est is None else est
    bound = m_bound if bound is None else bound
    exact = ref.seq[(panel, platform, kernel)][0]
    if abs(est - exact) <= bound:
        return []
    return ["%s %s/%s: memo %d +/- %.0f cycles, exact %d" % (panel, platform, kernel, est, bound, exact)]


def memo_csv_failures(ref, panel, text):
    """Memo runs whose CSV cells differ from the speedups the reference
    computes from the same memoized cycles: {(platform, kernel)}."""
    want = ref.memo_csv(panel)
    if text == want:
        return set()
    try:
        series, rows = parse_csv(text)
        _, want_rows = parse_csv(want)
    except (ValueError, IndexError):
        return set(ref.memo_runs(panel))
    if [x for x, _ in rows] != [x for x, _ in want_rows] or series != ref.panels[panel][1:]:
        return set(ref.memo_runs(panel))
    bad = set()
    hw = ref.panels[panel][0]
    for (x, got), (_, exp) in zip(rows, want_rows):
        for s in series:
            if cell_f(got[s]) != cell_f(exp[s]):
                bad |= {(s, x), (hw, x)}
    return bad or set(ref.memo_runs(panel))
