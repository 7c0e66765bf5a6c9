"""Golden output: the sha256 of fixed CLI runs.

Seeded output is promised to stay byte-identical, so a change to any of
these digests is a change of results and must be deliberate.  The runs take
a few seconds together.  Besides small compare, D-LAR and analyze runs, they
cover a compare run whose ttl of 5 cuts LAR floods short (its lar row counts
ttl drops), a compare density sweep whose every cell draws its own walk,
dense DIR and LAR campaigns of 4,000 vehicles, LAR on a sparse field of
about 30,000 vehicles whose floods run 14 hops, and DIR and D-LAR on a field
of 1e300 m, where the greedy chooser's angle products overflow.
The three campaign workloads of ``bench/run.py`` run at two seeds each:
compare-sparse (DIR, LAR and D-LAR on 800 vehicles, 60 flows), greedy-dense
(D-LAR on 8,000 vehicles, 50 flows) and mobility-long (DIR on 4,000
vehicles, 6 flows over 60 s).
A campaign routes its DIR and D-LAR flows in lockstep windows; every
campaign run keeps its bytes with windows of one flow and of all flows.
Three analyze runs stress the streamed Monte Carlo draw: 30,000 trials, whose
draws span about a hundred blocks, a density whose every trial holds more
points than one block, and a density so sparse that most trials are empty.
"""

import csv
import hashlib
import io

import pytest

from geo_route_sim import netsim
from geo_route_sim.cli import main

FIELD = ["field_width=2000", "field_height=2000"]
COMPARE = ["compare", "node_count=300", "flows=40", "beacon_interval=1.7", "time_step=0.4"]
SIMULATE = ["simulate", "protocol=dlar", *FIELD, "node_count=1500", "flows=40", "beacon_interval=3"]
COMPARE_TTL = ["compare", *FIELD, "node_count=800", "flows=60", "beacon_interval=1.7",
               "time_step=0.4", "ttl=5"]
COMPARE_SWEEP = ["compare", "--sweep", "density=0.0001:0.0003:3", "flows=20",
                 "beacon_interval=1.7"]
SIMULATE_LAR = ["simulate", *FIELD, "density=0.001", "node_count=4000", "protocol=lar", "flows=20"]
SIMULATE_DIR = ["simulate", *FIELD, "density=0.001", "node_count=4000", "protocol=dir",
                "flows=100", "beacon_interval=3"]
WIDE_LAR = ["simulate", "protocol=lar", "field_width=5477", "field_height=5477",
            "density=0.001", "flows=3"]
HUGE = ["simulate", "field_width=1e300", "field_height=1e300", "tx_range=2.5e299",
        "node_count=60", "flows=30"]
HUGE_DIR, HUGE_DLAR = HUGE + ["protocol=dir"], HUGE + ["protocol=dlar"]
# The campaign workloads of bench/run.py, copied so that the benchmark can change alone.
COMPARE_SPARSE = ["compare", *FIELD, "density=0.0002", "node_count=800", "flows=60"]
GREEDY_DENSE = ["simulate", *FIELD, "density=0.002", "node_count=8000", "protocol=dlar",
                "flows=50", "duration=7.5"]
MOBILITY_LONG = ["simulate", *FIELD, "density=0.001", "node_count=4000", "protocol=dir",
                 "duration=60", "flows=6"]

MC = ["analyze", "--mc-trials", "2000"]
MC_BENCH = ["analyze", "--mc-trials", "30000"]
MC_DENSE = ["analyze", "densities=0.2", "k_max=3", "--mc-trials", "50"]
MC_SPARSE = ["analyze", "densities=0.000002", "k_max=3", "--mc-trials", "20000"]

GOLDEN = [
    (COMPARE, 1, "07db13109687ad2ed9e795cc28b41cc85f061d7d6ff78ef9621762c1ae705202"),
    (COMPARE, 2, "44f6e98f130a354c7c6b32cecaec044bcdc5714e1b376234e7b83c3fe0fb0481"),
    (SIMULATE, 1, "c50b087a372a508d0075fff85b619a3c414f8cf529e78838d191b1a25d30e25a"),
    (SIMULATE, 2, "82531e34bee5f3398f5b4510c39d6cc7d5b06182c317f837216e04b577f73504"),
    (["analyze"], 1, "d67529ab00a72b516d67882be6e6f04eb7ba26a5e449c5c6b395da320be09b5e"),
    (["analyze"], 2, "d67529ab00a72b516d67882be6e6f04eb7ba26a5e449c5c6b395da320be09b5e"),
    (MC, 1, "74efe78927b484dc67e6ec1ad4957d3bf24580ea3fffa27218e96ee303e3a205"),
    (MC, 2, "ff583726cc9d4ee33b97fdb904026bc231eb3befefd358a5dbe41bb9c9c6aeec"),
    (MC_BENCH, 1, "8e5a015c0ce176373c354a336c94308936eab98311af7eefc31c09d8eea2d0a2"),
    (MC_DENSE, 1, "2dd74a920c39468ee8f25d3b8b0087024d438cdbb79b1ebe46de5402df8820d5"),
    (MC_SPARSE, 1, "b5b61e9cc217a8b8446ccbb11db797416cb97fa87a75b5a6b10edb68b25369f0"),
    (COMPARE_TTL, 1, "07e7da0b3fa6b6ec4fccec8e128fef82f73ce362f6287f5c2514e895da832689"),
    (COMPARE_SWEEP, 1, "7f2f9a955d3105acd451e70e324f2770115ec23e1013c8dcbc91ed05536938d2"),
    (SIMULATE_LAR, 1, "f8b77b22c72769e3738e7682b1bfc7e20e875823f7b1c5904990825940fb5f46"),
    (SIMULATE_DIR, 1, "9aaa1eac2480de4ba9adc5b8183f63b77daabf398d1d087a6edc5d6ea685c2ae"),
    (WIDE_LAR, 1, "60a58e2edd96eb46d554cfe5b0a196844b76fff94a9086e9a8c88394a5938be4"),
    (HUGE_DIR, 1, "491d16114dbd998f2e77b1b81f652248a80882a89d8e96099395e9c352fa3d98"),
    (HUGE_DLAR, 1, "0ead0ad9e56b89c7f5f1d7a25258fe1c970fca6a91631626d2b10a97586516cc"),
    (COMPARE_SPARSE, 1, "f0f43c4e2dcfb1990d569867cfd833bc531f7ba3144f6b0b577a23b307686377"),
    (COMPARE_SPARSE, 2, "328cb2868853e71b575fee31936c5f349850c419cee704dcf7269789f4b45b24"),
    (GREEDY_DENSE, 1, "fbc999a70c07ac412d996ec100a55b5f1d28e778c87f329b21f750fadd5ab7bf"),
    (GREEDY_DENSE, 2, "1dceb3d5637eecb2de518ba288964c5f9dc47ce979b274a68c9e7855b4627540"),
    (MOBILITY_LONG, 1, "743d10d5a8078b185b8f75ce23f4f6607a0af98b3996019fde30971a7a223bd8"),
    (MOBILITY_LONG, 2, "aa8ec86a8dcff8b109478c87a1d188307581c3c5e073c9aad2b6b53db24c0594"),
]

SUFFIX = {
    id(MC): "-mc", id(MC_BENCH): "-mc30000", id(MC_DENSE): "-mc-dense",
    id(MC_SPARSE): "-mc-sparse", id(COMPARE_TTL): "-ttl5",
    id(COMPARE_SWEEP): "-sweep", id(SIMULATE_LAR): "-lar4000",
    id(SIMULATE_DIR): "-dir4000", id(WIDE_LAR): "-lar-wide", id(HUGE_DIR): "-dir1e300",
    id(HUGE_DLAR): "-dlar1e300", id(COMPARE_SPARSE): "-bench-compare-sparse",
    id(GREEDY_DENSE): "-bench-greedy-dense", id(MOBILITY_LONG): "-bench-mobility-long",
}
IDS = [f"{argv[0]}{SUFFIX.get(id(argv), '')}-seed{seed}" for argv, seed, _ in GOLDEN]


@pytest.mark.parametrize("argv,seed,digest", GOLDEN, ids=IDS)
def test_cli_output_digest(capsys, argv, seed, digest):
    assert main(argv + ["--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,seed", [(argv, seed) for argv, seed, _ in GOLDEN], ids=IDS)
def test_cli_output_reads_back_as_csv(capsys, argv, seed):
    # Rows are joined with bare commas: no field needs the quoting a csv writer would add.
    assert main(argv + ["--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert len({len(row) for row in rows}) == 1
    assert "".join(",".join(row) + "\n" for row in rows) == out


CAMPAIGNS = [(argv, seed, digest) for argv, seed, digest in GOLDEN if argv[0] != "analyze"]


@pytest.mark.parametrize("rows", [1, 2**40], ids=["flow-windows", "one-window"])
@pytest.mark.parametrize("argv,seed,digest", CAMPAIGNS,
                         ids=[i for i, (argv, _, _) in zip(IDS, GOLDEN) if argv[0] != "analyze"])
def test_window_size_moves_no_byte(capsys, monkeypatch, argv, seed, digest, rows):
    monkeypatch.setattr(netsim, "_WINDOW_ROWS", rows)
    assert main(argv + ["--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
