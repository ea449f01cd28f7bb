"""Golden artifacts: SHA-256 of the summary JSON and transcript CSV per config.

A refactor or optimisation of the builders, the plan interpreter or the
engine must leave these bytes unchanged.  A hash may change only in a
change that says why in CHANGES.md.  Print the current hashes with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mpcmm.experiment import ExperimentConfig, build_schedule, generate_instance, run_experiment
from mpcmm import plan as plan_module
from mpcmm.semiring import get_semiring

SEMIRINGS = ("int", "bool", "tropical")

CONFIGS = {
    **{f"square-{s}": dict(case="square", n=16, alpha=1.0, semiring=s) for s in SEMIRINGS},
    **{f"ndn-{s}": dict(case="ndn", n=16, d=4, semiring=s) for s in SEMIRINGS},
    **{f"dnd-n-{s}": dict(case="dnd-n", n=16, d=4, semiring=s) for s in SEMIRINGS},
    **{f"dnd-d-{s}": dict(case="dnd-d", n=16, d=4, semiring=s) for s in SEMIRINGS},
    **{f"sparse-trivial-{s}": dict(case="sparse-trivial", n=16, d=2, semiring=s)
       for s in SEMIRINGS},
    **{f"sparse-twophase-{s}": dict(case="sparse-twophase", n=32, d=4, semiring=s)
       for s in SEMIRINGS},
    "square-redistribute": dict(case="square", n=16, alpha=1.0, redistribute=True),
    "square-padded": dict(case="square", n=18, alpha=1.0),
    # Grid 4 of 2 x 2 tiles padded to 8 x 8: the last tile row and column lie
    # wholly past the 6 x 6 output, so their emitted tiles are cropped away.
    "square-edge": dict(case="square", n=6, alpha=1.5),
    "square-alpha2": dict(case="square", n=8, alpha=2.0, semiring="bool"),
    "sparse-trivial-blockdiag": dict(case="sparse-trivial", n=16, d=4, instance="blockdiag"),
    "sparse-twophase-blockdiag": dict(case="sparse-twophase", n=32, d=4, instance="blockdiag"),
    # Rotations on grids of side 3, where the left and right (and the up and
    # down) neighbours differ, so a slip in the skew direction shows.
    "dnd-n-grid3": dict(case="dnd-n", n=36, d=9),
    "dnd-n-tree2": dict(case="dnd-n", n=64, d=4, semiring="tropical"),
    "dnd-d-blocks3": dict(case="dnd-d", n=36, d=18),
    "ndn-bool-d18": dict(case="ndn", n=36, d=18, semiring="bool"),
    "sparse-twophase-grid3": dict(case="sparse-twophase", n=36, d=9, instance="blockdiag"),
    "square-alpha0": dict(case="square", n=16, alpha=0.0),
    # 32x32 tiles: 2**15 terms per block product, past the size where the
    # int and bool kernels switch to float64 BLAS.
    **{f"square-tile32-{s}": dict(case="square", n=128, alpha=0.5, semiring=s)
       for s in SEMIRINGS},
    # Two-phase fallbacks with layers found: four layers and no residual,
    # then one layer plus a residual of 101 terms.
    "sparse-twophase-layers-fallback": dict(case="sparse-twophase", n=16, d=2,
                                            instance="blockdiag"),
    "sparse-twophase-residual-fallback": dict(case="sparse-twophase", n=16, d=4),
    # Padded inputs: ndn pads its strips from d = 7 to 12 columns, and dnd-d
    # pads d = 10 to 12 rows with groups of 3.
    "ndn-padded": dict(case="ndn", n=36, d=7, semiring="tropical"),
    "dnd-d-padded": dict(case="dnd-d", n=36, d=10),
}



def perfbench(name):
    """The module ``perfbench/<name>.py``, which is not a package."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_configs():
    workloads = perfbench("workloads")
    return {f"{name}-{i}": config for name in workloads.NAMES
            for i, config in enumerate(workloads.configs(name, workloads.DEFAULT_SEED))}


# Every golden config and every config the benchmark's workloads run.
SHIPPED_CONFIGS = {**{name: ExperimentConfig(seed=1, **fields) for name, fields in CONFIGS.items()},
                   **_workload_configs()}

# name -> (summary JSON SHA-256, transcript CSV SHA-256)
GOLDEN = {
    "square-int": (
        "cc74d254b16df259d0ba0436f5a4e4c5e7917241b59d5afbfc3e28909ba0ee22",
        "debd6c254009a15081db02f6edb80f20d7b7d02755cf0e613c27f2366d8d66b4",
    ),
    "square-bool": (
        "a1838be5a4adfa7e5b35f9e71dfc93a9082cbd3fc82173fcd67ecc0bfb946911",
        "debd6c254009a15081db02f6edb80f20d7b7d02755cf0e613c27f2366d8d66b4",
    ),
    "square-tropical": (
        "0a7bb42bf2c6137dc720f39829e481ea42d5b297944435297d601d1eb2250ecb",
        "debd6c254009a15081db02f6edb80f20d7b7d02755cf0e613c27f2366d8d66b4",
    ),
    "ndn-int": (
        "f4d52a758612a49e3f7d94f567012d01f68feffbd46eaee5d71d0e9cd0d36647",
        "c6d189f25dc3b52e57bb9da6e307155d94e2780ecc4a3a82ef93cba71219297d",
    ),
    "ndn-bool": (
        "850de8fdce26de47d319deb1bb619f73fe94716337727526f1717b248b8a79ba",
        "c6d189f25dc3b52e57bb9da6e307155d94e2780ecc4a3a82ef93cba71219297d",
    ),
    "ndn-tropical": (
        "128adc363a1a3453f7aa0a5774f9aac97a3ba260a56f79eb503b2ac688efd57e",
        "c6d189f25dc3b52e57bb9da6e307155d94e2780ecc4a3a82ef93cba71219297d",
    ),
    "dnd-n-int": (
        "db568ff79bbd8ba5efcc7db15c2a3a3f17052ea224c1b8efa5d895c3f7573fb4",
        "0886373f3550bd3e35a621a05581f6ca1994c89c578ef2bf400a21aa4e7bc852",
    ),
    "dnd-n-bool": (
        "00f6dfba86a89774d7bce083f7c543fcd50dab24dfc48f302caafc94a2cea399",
        "0886373f3550bd3e35a621a05581f6ca1994c89c578ef2bf400a21aa4e7bc852",
    ),
    "dnd-n-tropical": (
        "be62217df992983108a05b76432496a95047337c55982e91d8f5e00c1530395c",
        "0886373f3550bd3e35a621a05581f6ca1994c89c578ef2bf400a21aa4e7bc852",
    ),
    "dnd-d-int": (
        "7da9d639ad8c065c382b638625a4e3d97d0cf52777c661a938dc27a8907c3b7c",
        "48f6779abed68d80c220380c5ade9b3ea1b480e93de6b07d8bc395ed3fecadd8",
    ),
    "dnd-d-bool": (
        "9184d64ba355497b764993ee839c0a8b8eb9b2cdea85c12634e1f3a32e8effb3",
        "48f6779abed68d80c220380c5ade9b3ea1b480e93de6b07d8bc395ed3fecadd8",
    ),
    "dnd-d-tropical": (
        "a043d53b3174cfc98481d42b24b130e7095e2f48be89ad6636ea34cd2f9299dd",
        "48f6779abed68d80c220380c5ade9b3ea1b480e93de6b07d8bc395ed3fecadd8",
    ),
    "sparse-trivial-int": (
        "7b092f026613ad83c68db4308406cbd459961f3c1da646af8611b33b6901a85a",
        "cd577c8e3bc411caa71dad7a45fde2b7f8c6bf9dfe898334ec3dfc005a812e57",
    ),
    "sparse-trivial-bool": (
        "842ef1f4d2b18591055e2089bc8ece5e0f6074e3cf18ceb7930565deabe47ab4",
        "3ba758162dfe25ffa1cb61bf2fe9e8ce937d2a4cbbd3cbc0b2bd4e20922f14d0",
    ),
    "sparse-trivial-tropical": (
        "2570dec345b49d4230e32ffa885be469c3bf8f2aa1ce7f5c1b4310b2f024cec6",
        "cd577c8e3bc411caa71dad7a45fde2b7f8c6bf9dfe898334ec3dfc005a812e57",
    ),
    "sparse-twophase-int": (
        "f83159120afedbaa8fb338fb2fae5aad6c263d8f232ffc8fca4ab96fead18a69",
        "137c7063970060bbcb721f7eeae2d9429aa6d31dbd57f445b16486c5df6d15fe",
    ),
    "sparse-twophase-bool": (
        "5d09414517e09e936707c8c74bd0ac1e3785b3fc2290be962b6da71ef3093ad9",
        "33f51b42286cbdbc76c76e66ec991db2d0a0e0889ec85dbfcc6b8b159eb53d6e",
    ),
    "sparse-twophase-tropical": (
        "97189c6d44981c5d58f16ce0274a72662fdb5343b7d17e4c9821826da08ec81e",
        "137c7063970060bbcb721f7eeae2d9429aa6d31dbd57f445b16486c5df6d15fe",
    ),
    "square-redistribute": (
        "56798c5a9ff32d40bbf744fba1ed519fab078b406360e8e46e0e0c77601798fc",
        "0b4f63ff9173fe470adc1aa0693e7b009bee09dff894f5a482b59a4d547134ee",
    ),
    "square-padded": (
        "6b33d9c47f5511fe6f2ed18b3d64128ccc813ae92915aeb1af58c9fa9d76ebbb",
        "7a8ecf68c4dfc2d5de116bc71e703e3772e0df3ba44b4529b79f692d35e30a3d",
    ),
    "square-edge": (
        "ecf7fa3b3e2469320c92f2e5ffbce65f6bae8e37b88a122356ecf5dc1de599fc",
        "c09ddffb2b75a93fd6cd6a6ce5628a023a6e96f08239086edcf51660d7ca5ddb",
    ),
    "square-alpha2": (
        "287df2fbf07c59bc118855190d62f0e6e36b7b99652573b440f033d5af1e8e2c",
        "3efca1be4efca4391ac8daccb983d7d56d5091b6be2c032f2cef0e65a8d533ce",
    ),
    "sparse-trivial-blockdiag": (
        "5d2a1904b515d90481849c7cf7dd63edffbe469ca5a251a0b8e5775e1d4f9b7b",
        "cd68f9e5eb9112ddca31a32109d5266378c0d0ddd16d78d64b5e4b9dcfce3106",
    ),
    "sparse-twophase-blockdiag": (
        "b6719e8b3362ad5b9d1b5cd554e19e194d5ed45d4975006e54348fe232246967",
        "3f18a64dbe2b6cd6c22ef01feabe5ab867ba7ec489cceb733cf3a86d84231e34",
    ),
    "dnd-n-grid3": (
        "610cd11a980b2e0c43921c5684debab4f18e761b1edf26a69cdbca0698f59f33",
        "37d58253726c05386d11b5fa354e7b80fbd8ed433eb5475ea4f4561fb168923c",
    ),
    "dnd-n-tree2": (
        "221dd5961c9d9c3449dad916313b803f7ab671b7523cfe421a94aa1ff0f5375f",
        "19c760b3a0a9d9f5ccdd1a675648ba7f3a535ec43edd2aa8e56821dea3192b48",
    ),
    "dnd-d-blocks3": (
        "183c5316af4bc50bdb7049a78297bd78f06ed39c966e3a394b534c0fb4832647",
        "db306c675ecf54389efa090c24f7232d13db25c3300237e1985ce57a0604e130",
    ),
    "ndn-bool-d18": (
        "e39e02c021b5415386d3e4baf15e3e9bc510cdc29663002a3706830c044d38e7",
        "4d757e61fd76436b42700e8b1a0b921b13f4a93669d36d116b86614dadfd2621",
    ),
    "sparse-twophase-grid3": (
        "abdb57ae7aac163565676f31f2fa29b69b3e78f6950da040f16d70a9b462b15d",
        "c4d7bf2bfa7d0c584685721656bf8a88efc9452c953433772269bca421c48830",
    ),
    "square-alpha0": (
        "63f3d0d591ddfee23576d737d4716a560195907ce830b1ca53c083faee66fbcb",
        "4c9ad671e879593404f3204659340ea22f2051e038ea7d12fb40863598da7260",
    ),
    "square-tile32-int": (
        "255872bbd6ca7f317c2a2766df2cdc40aaf0e09eeacfe249670ef84a15bae0a7",
        "5ebc7d5f8ad3c36b9ea2b37d058046c444d515103b55ca2f250088024871ece3",
    ),
    "square-tile32-bool": (
        "34867389a26d6e0be7a841f58cdfc4761fecab9ac1a2651f6ee32f87c1690dc2",
        "5ebc7d5f8ad3c36b9ea2b37d058046c444d515103b55ca2f250088024871ece3",
    ),
    "square-tile32-tropical": (
        "9cf675463ecd640e7b315150d63eb6d2f5f6c52aedb369a055ccafcfdaa6c7bb",
        "5ebc7d5f8ad3c36b9ea2b37d058046c444d515103b55ca2f250088024871ece3",
    ),
    "sparse-twophase-layers-fallback": (
        "6c7b46cb6483eba90ab1f38c9b041fa0c73903a5d0022765491fc1af01f4c593",
        "e755a68b70c6938413d5a1f5125fc1977b6ffc86075554e141fae4f33a457699",
    ),
    "sparse-twophase-residual-fallback": (
        "b50d41ace589de346d857f7c0926517037ed2dda45349bfec530274e2e618a09",
        "b397aa384a37b2e8e815662dd7c0123fa3d0df1c98ce4c43d1ffe90175f87952",
    ),
    "ndn-padded": (
        "9227b705ef17be45eb595ecdd0e2a3f85d0f720660c09d7063de1638ce58877c",
        "86c0d8b63f8e7fa0d3f72d2e20011da235ace0bdbd6b797d6ca5bd9ed1360e8f",
    ),
    "dnd-d-padded": (
        "06082e456880414b5e26ccf4f2afa1e9bad6b65e8a9a616e0c732824c54b6b63",
        "2a1c90222381b68f76b75cb5d2c9ac7e5d97474e736aaa3cb8441b033b17f0ff",
    ),
}


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_hashes(name, out_dir):
    summary = run_experiment(ExperimentConfig(seed=1, **CONFIGS[name]), out_dir=out_dir)
    assert summary["ok"], f"{name} is not ok"
    return _digest(summary["summary_path"]), _digest(summary["transcript_path"])


def test_golden_covers_every_config():
    assert set(GOLDEN) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_artifacts(name, tmp_path):
    assert artifact_hashes(name, str(tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_executing_a_schedule_twice_gives_the_same_bytes(name):
    """Group ops change the stores in place, so a run must leave the built
    plan as it found it."""
    config = SHIPPED_CONFIGS[name]
    spec = get_semiring(config.semiring)
    schedule = build_schedule(config, *generate_instance(config, spec), spec)

    def outcome():
        result, out = schedule.execute(cap_factor=config.cap_factor)
        outputs = [(p, r, np.asarray(c).tolist(), block.tobytes())  # cells list their columns
                   for p, r, c, block in zip(*result.outputs)]
        return result.transcript.to_csv(), outputs, out.data.tobytes()

    assert outcome() == outcome()


def _uncounted(store_change):
    """``store_change`` (``plan._give``, ``plan._give_cells`` or
    ``plan._tiles``) with its change to the state words undone: a fresh key
    or cell left uncounted, or a pop."""

    def mutant(program, *args):
        words = program.state_words.copy()
        found = store_change(program, *args)
        program.state_words[:] = words
        return found

    return mutant


# The store-word mutants that change each config's transcript.  The two
# sparse plans run fetches alone, which read family rows and give output
# cells only, so no store tile leaves through ``_tiles``; on square-alpha0
# the one processor's peak is its inputs, before its C tile arrives.
UNCOUNTED_CAUGHT = {
    "dnd-d-int": {"_give", "_tiles"},
    "square-alpha0": {"_tiles"},
    "sparse-trivial-blockdiag": {"_give_cells"},
    "sparse-twophase-int": {"_give_cells"},
}


@pytest.mark.parametrize("name", sorted(UNCOUNTED_CAUGHT))
def test_a_store_left_unmeasured_changes_the_golden_transcript(monkeypatch, name, tmp_path):
    """The engine measures no store: the program counts state words where
    tiles arrive (``_give``, a fresh key; ``_give_cells``, a fresh output
    cell) and leave (``_tiles``, a pop).  Leaving any count out changes the
    golden transcript: each mutant on at least two of these configs."""
    caught = set()
    for store_change in ("_give", "_give_cells", "_tiles"):
        with monkeypatch.context() as mp:
            mp.setattr(plan_module, store_change,
                       _uncounted(getattr(plan_module, store_change)))
            summary = run_experiment(ExperimentConfig(seed=1, **CONFIGS[name]),
                                     out_dir=str(tmp_path))
        assert summary["ok"]
        if _digest(summary["transcript_path"]) != GOLDEN[name][1]:
            caught.add(store_change)
    assert caught == UNCOUNTED_CAUGHT[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        for key in CONFIGS:
            summary_sha, transcript_sha = artifact_hashes(key, out)
            sys.stdout.write(f'    "{key}": (\n        "{summary_sha}",\n'
                             f'        "{transcript_sha}",\n    ),\n')
