"""Byte-for-byte regression of the CLI on the bundled demos.

Every file the CLI writes (and route mode's stdout lines) is compared by
SHA-256 against digests recorded from a known-good build. A refactor
that claims to change no output must keep every digest; a change that
moves output on purpose re-records them and says why.

To re-record: ``PYTHONPATH=src python tests/test_demo_golden.py``.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from tplroute.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
DEMOS = ("demo_2net", "demo_congested")
MODES = ("route", "baseline", "compare")

GOLDEN = {
    "demo_2net/baseline/out.layer0.svg": "ca50ffbdd8c2a808a46e1c5efaedfdb936cf790e9d93a005797ac035e732f653",
    "demo_2net/baseline/out.layer1.svg": "ee2477a07ff4dd9e2c4d40e1bed9d84cae0d7313e128907ae5ba29894336fb4b",
    "demo_2net/baseline/out.report.json": "ccc57d0dd042c28308ffcef6039136bc43d4093764c1bbbebbf77955062e7ebf",
    "demo_2net/baseline/out.routes.json": "e42243f9d8fe68a7d8ff41622dc1f6d34b747b600798a8eafbddeac0df3091de",
    "demo_2net/baseline/stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "demo_2net/compare/out.compare.json": "42ef5d71846209046d215246ef68393f89e9fc74d8b93cf5e13c89be0c484031",
    "demo_2net/compare/out.layer0.svg": "ca50ffbdd8c2a808a46e1c5efaedfdb936cf790e9d93a005797ac035e732f653",
    "demo_2net/compare/out.layer1.svg": "ee2477a07ff4dd9e2c4d40e1bed9d84cae0d7313e128907ae5ba29894336fb4b",
    "demo_2net/compare/stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "demo_2net/route/out.layer0.svg": "ca50ffbdd8c2a808a46e1c5efaedfdb936cf790e9d93a005797ac035e732f653",
    "demo_2net/route/out.layer1.svg": "ee2477a07ff4dd9e2c4d40e1bed9d84cae0d7313e128907ae5ba29894336fb4b",
    "demo_2net/route/out.report.json": "9ea8721b739ff393cd126d807ebb70b1e25c6e5a0a07f8f84d88a6afa3f6d19f",
    "demo_2net/route/out.routes.json": "eb31e7faf9936e4b3e74c6d4ef2af157879ecc7896c6ca424dd22d69fac084c2",
    "demo_2net/route/stdout": "425bb89ed0721a93b1ccf05a1ccc15a8f299e12b9cc20f5e2fe85230e66cbe63",
    "demo_congested/baseline/out.layer0.svg": "89a73cc11025566aece6a282bf30352a575200d26cdfddc7378293ec2b831ae8",
    "demo_congested/baseline/out.layer1.svg": "53e6bc8a20925daf77270fbefd072486f4fda0aa310128625fcf65307f3c8c9f",
    "demo_congested/baseline/out.report.json": "7f94658d604515ea4321cda423d906be4f01c2c2299db916f23fa5107a5769dc",
    "demo_congested/baseline/out.routes.json": "045859b254b281c5f2b23cfba74a1316b5fcfb051e4da232d30d66ade49a4587",
    "demo_congested/baseline/stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "demo_congested/compare/out.compare.json": "6ae5ba08638f859b479db0c76165a577773844652d2f4b044a91a3a03c42b400",
    "demo_congested/compare/out.layer0.svg": "c9360e0fc0dc7b5895513a215695176b4f51b5e7efcc6e9fb7b320e2f001ac57",
    "demo_congested/compare/out.layer1.svg": "9cf665424e892f75b89640a47c7f20183826d4cd17de129fbca8b0cad4b12123",
    "demo_congested/compare/stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "demo_congested/route/out.layer0.svg": "c9360e0fc0dc7b5895513a215695176b4f51b5e7efcc6e9fb7b320e2f001ac57",
    "demo_congested/route/out.layer1.svg": "9cf665424e892f75b89640a47c7f20183826d4cd17de129fbca8b0cad4b12123",
    "demo_congested/route/out.report.json": "8df0abc88edc0c51f0fcd35b60e8ad5e3461dfb12cac8415044de5c41b7a4da8",
    "demo_congested/route/out.routes.json": "800561782d9a64e034b4a212729430b0ae7cb25a5f4fea6aa6045684fd3a71b0",
    "demo_congested/route/stdout": "159c75a609dacdc768e0724b8863d868ce1585a3e2e00842fda17d3b5c4eacef",
    "generate/seed8/out": "651b67ea20dea231031b9b3505ef4d22e201058923b3742ac0f50f8e629f8a56",
    "generate/seed8/stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(out_dir: Path, tag: str, argv: list[str]) -> dict[str, str]:
    """Run the CLI in-process; digest its stdout and every file it writes."""
    out_dir.mkdir(parents=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--output", str(out_dir / "out")]) == 0
    digests = {f"{tag}/stdout": _sha(stdout.getvalue().encode())}
    for path in sorted(out_dir.iterdir()):
        digests[f"{tag}/{path.name}"] = _sha(path.read_bytes())
    return digests


def golden_run(tmp: Path) -> dict[str, str]:
    digests: dict[str, str] = {}
    for demo in DEMOS:
        for mode in MODES:
            tag = f"{demo}/{mode}"
            argv = ["--mode", mode, "--input", str(DATA / f"{demo}.json"), "--render"]
            digests.update(_run(tmp / demo / mode, tag, argv))
    digests.update(_run(tmp / "generate", "generate/seed8", ["--mode", "generate", "--seed", "8"]))
    return digests


def test_cli_output_matches_golden_digests(tmp_path):
    got = golden_run(tmp_path)
    assert sorted(got) == sorted(GOLDEN), "the set of written files changed"
    changed = [key for key in sorted(GOLDEN) if got[key] != GOLDEN[key]]
    assert not changed, f"output bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in sorted(golden_run(Path(tmp)).items()):
            print(f'    "{key}": "{digest}",')
