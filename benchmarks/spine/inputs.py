"""Seeded input generators for the measurement spine.

Every document is a pure function of ``(parameters, seed)``: the
program under test only ever sees the generated bytes.  XMark documents
come from the repository's own generator (``repro.xmark``); the
DBLP-shaped corpus is generated here because nothing in ``src/`` has
the attribute-per-record shape of real bibliographic data (SNIPPETS.md,
Snippet 1).
"""

from __future__ import annotations

import random

from repro.xmark.generator import generate_document

#: scale of the sizing probe: ``scale_for_bytes`` probes at scale 1,
#: where section rounding makes 24 MB documents differ by 6% between
#: seeds; probed at 20 (~0.9 MB, 20 ms) they differ by under 1%, so
#: per-session times compare across seeds
_PROBE_SCALE = 20.0


def xmark_bytes(seed: int, target_bytes: int = 0, scale: float = 0.0) -> bytes:
    """One XMark document, sized either by *target_bytes* (scale
    calibrated per seed) or by a fixed *scale* (section cardinalities —
    and with them every buffer count — independent of the seed)."""
    if not scale:
        probe = len(generate_document(_PROBE_SCALE, seed))
        scale = _PROBE_SCALE * target_bytes / probe
    return generate_document(scale, seed).encode("utf-8")


_GIVEN = (
    "Daniel Nikolaus Willi Alexander Thomas Christoph Michael Chen "
    "Konstantin Christine Ada Grace Edsger Barbara Leslie Tony Frances"
).split()
_FAMILY = (
    "Schmitt Kocher Augsten Mann Miller Huetter Kirsch Carey Li Thiel "
    "Schaeler Koch Scherzinger Schweikardt Hopper Dijkstra Liskov Lamport"
).split()
_TITLE_WORDS = (
    "Streaming Evaluation Buffer Minimization Scheme Index Join Similarity "
    "Signature Stable Exact Flexible Clustering Documents Queries XML "
    "Projection Garbage Collection Dynamic Scalable Adaptive Robust"
).split()
_JOURNALS = (
    ("pvldb", "Proc. VLDB Endow."),
    ("pacmmod", "Proc. ACM Manag. Data"),
    ("tods", "ACM Trans. Database Syst."),
    ("vldbj", "VLDB J."),
)
_CONFS = (("sigmod", "SIGMOD Conference"), ("icde", "ICDE"), ("edbt", "EDBT"))

#: the ``mdate`` the ``dblp_attrs`` query selects; one generated record
#: in ``len(_MDATES)`` carries it, so output stays a small share of input
DBLP_PROBE_MDATE = "2023-06-15"
_MDATES = (DBLP_PROBE_MDATE,) + tuple(
    f"{year}-{month:02d}-{day:02d}"
    for year in (2022, 2023, 2024)
    for month in (2, 8, 11)
    for day in (3, 5, 27)
)


def _dblp_record(rng: random.Random, serial: int, out: list[str]) -> None:
    is_article = rng.random() < 0.6
    tag = "article" if is_article else "inproceedings"
    venue_key, venue = rng.choice(_JOURNALS if is_article else _CONFS)
    year = rng.randint(1999, 2024)
    first_family = rng.choice(_FAMILY)
    key = (
        f"{'journals' if is_article else 'conf'}/{venue_key}/"
        f"{first_family}{serial}"
    )
    attrs = f'mdate="{rng.choice(_MDATES)}" key="{key}"'
    if rng.random() < 0.1:
        attrs += ' publtype="informal"'
    out.append(f"<{tag} {attrs}>")
    for position in range(rng.randint(1, 6)):
        family = first_family if position == 0 else rng.choice(_FAMILY)
        name = f"{rng.choice(_GIVEN)} {family}"
        if rng.random() < 0.6:
            orcid = "-".join(f"{rng.randint(0, 9999):04d}" for _ in range(4))
            out.append(f'<author orcid="{orcid}">{name}</author>')
        else:
            out.append(f"<author>{name}</author>")
    words = [rng.choice(_TITLE_WORDS) for _ in range(rng.randint(4, 10))]
    if rng.random() < 0.3:
        words.insert(rng.randint(1, len(words) - 1), "&amp;")
    out.append(f"<title>{' '.join(words)}.</title>")
    first_page = rng.randint(1, 3000)
    out.append(f"<pages>{first_page}-{first_page + rng.randint(8, 30)}</pages>")
    out.append(f"<year>{year}</year>")
    if is_article:
        out.append(f"<volume>{rng.randint(1, 40)}</volume>")
        out.append(f"<journal>{venue}</journal>")
        out.append(f"<number>{rng.randint(1, 12)}</number>")
    else:
        out.append(f"<booktitle>{venue}</booktitle>")
    doi = f"10.{rng.randint(1000, 9999)}/{rng.randint(1000000, 9999999)}"
    if rng.random() < 0.4:
        out.append(f'<ee type="oa">https://www.example.org/{venue_key}/p{serial}.pdf</ee>')
    out.append(f"<ee>https://doi.org/{doi}</ee>")
    if not is_article:
        out.append(f"<crossref>conf/{venue_key}/{year}</crossref>")
    out.append(f"<url>db/{key.rsplit('/', 1)[0]}/{venue_key}{year}.html#{first_family}{serial}</url>")
    out.append(f"</{tag}>")


def dblp_bytes(seed: int, target_bytes: int) -> bytes:
    """A DBLP-shaped corpus of about *target_bytes*: ``mdate``/``key``
    (and sometimes ``publtype``) on every record, ``orcid`` on ~60% of
    authors, ``type`` on some ``ee``, ``&amp;`` in titles, no DTD."""
    rng = random.Random(seed)
    out = ["<dblp>"]
    size = 0
    serial = 0
    while size < target_bytes:
        mark = len(out)
        _dblp_record(rng, serial, out)
        size += sum(len(part) for part in out[mark:])
        serial += 1
    out.append("</dblp>")
    return "\n".join(out).encode("utf-8")
