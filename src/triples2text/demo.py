"""Synthetic biography corpus for offline end-to-end runs.

Writes a triple dump, annotated two-sentence summaries, instance-type and
gender lexicons, and a ready-to-use config file. Every person gets the
same triple slots (birth date, birth place, nationality, occupation, one
notable work pointing back at the person, a duplicated career-year pair,
and a motto string that the pipeline drops), so after rewriting each
example carries exactly eight triples and the corpus bounds hold by
construction. Sentence templates are functions of the occupation group,
which keeps the triples-to-summary mapping deterministic and learnable at
desk scale. Slot distributions are skewed on purpose so the n-gram
baseline has a meaningful mode to pick.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .fileio import atomic_open, writing

_GIVEN_FEMALE = ["Mira", "Selda", "Anneke", "Petra", "Ilsa", "Noor", "Greta",
                 "Vera", "Daria", "Yuna", "Edith", "Sanne"]
_GIVEN_MALE = ["Arvid", "Bram", "Casper", "Douwe", "Egon", "Florian", "Gerrit",
               "Henrik", "Ivo", "Joost", "Klaas", "Lenn"]
_FAMILY = ["Voss", "Halberg", "Strand", "Kuiper", "Lindgren", "Bakker", "Holm",
           "Visser", "Dahl", "Mertens", "Falk", "Roders", "Smedt", "Winter",
           "Aalders", "Brink", "Corver", "Duyn", "Ekman", "Florin"]

_CITIES = ["Ardenport", "Bellmare", "Corvale", "Dunmore_Bay", "Eastervik",
           "Fenwick", "Greyfield", "Kestrel_Falls"]
_CITY_WEIGHTS = [0.25, 0.15, 0.12, 0.12, 0.10, 0.10, 0.08, 0.08]

_COUNTRIES = [("Veldoria", "Veldorian"), ("Norsland", "Norslandic"),
              ("Brenmark", "Brenmarkish"), ("Casteria", "Casterian"),
              ("Doverre", "Doverrian"), ("Felmark", "Felmarkian"),
              ("Galvenia", "Galvenian"), ("Harwick", "Harwickian")]
_COUNTRY_WEIGHTS = [0.40, 0.15, 0.12, 0.08, 0.07, 0.07, 0.06, 0.05]

# occupation group -> (occupations, work predicate, work type, work noun pool)
_GROUPS = {
    "writer": (["Novelist", "Poet", "Playwright"], "dbo:author", "dbo:Book",
               ["River", "Letters", "Garden", "Harbour", "Winter", "Mirror",
                "Orchard", "Crossing", "Lantern", "Meridian"]),
    "musician": (["Singer", "Composer", "Pianist"], "dbo:artist", "dbo:Album",
                 ["Echoes", "Tides", "Voltage", "Aurora", "Pulse", "Season",
                  "Monsoon", "Satellite", "Cadence", "Ember"]),
    "director": (["Director", "Screenwriter", "Producer"], "dbo:director", None,
                 ["Hour", "Border", "Signal", "Passage", "Verdict", "Causeway",
                  "Harvest", "Descent", "Circuit", "Parallel"]),
}
_GROUP_NAMES = ["writer", "musician", "director"]
_GROUP_WEIGHTS = [0.60, 0.25, 0.15]
_OCC_WEIGHTS = [0.60, 0.25, 0.15]

_WORK_ADJ = ["Silent", "Hollow", "Amber", "Restless", "Paper", "Violet",
             "Northern", "Glass", "Burning", "Little", "Stolen", "Evening",
             "Iron", "Quiet", "Golden", "Distant", "Broken", "Last", "Pale", "Wild"]

_MONTHS = ["January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"]
_MONTH_WEIGHTS = [0.05, 0.05, 0.40, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.10]
MIN_SIZE = 10  # articles


def _choice(rng, items, weights):
    p = np.asarray(weights, dtype=float)
    return items[int(rng.choice(len(items), p=p / p.sum()))]


def demo_corpus(seed: int, size: int, out_dir: str) -> dict[str, str]:
    """Generate the corpus files under out_dir; returns the path map."""
    if size < MIN_SIZE:
        raise ValueError(f"size must be at least {MIN_SIZE}")
    rng = np.random.default_rng(seed)
    with writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)

    people = [(g, f) for f in _FAMILY for g in _GIVEN_FEMALE + _GIVEN_MALE]
    rng.shuffle(people)
    if size > len(people):
        raise ValueError(f"size {size} exceeds the {len(people)} distinct names available")

    triples_lines: list[str] = []
    summary_lines: list[str] = []
    types: dict[str, str] = {}
    genders: dict[str, str] = {}
    used_works: set[str] = set()

    for city in _CITIES:
        types[f"dbr:{city}"] = "dbo:Settlement"
    for country, _ in _COUNTRIES:
        types[f"dbr:{country}"] = "dbo:Country"

    for i in range(size):
        given, family = people[i]
        person = f"dbr:{given}_{family}"
        surface = f"{given} {family}"
        gender = "female" if given in _GIVEN_FEMALE else "male"
        genders[person] = gender
        types[person] = "dbo:Person"
        pronoun = "She" if gender == "female" else "He"

        group = _choice(rng, _GROUP_NAMES, _GROUP_WEIGHTS)
        occs, work_pred, work_type, nouns = _GROUPS[group]
        occ = _choice(rng, occs, _OCC_WEIGHTS)
        occ_uri = f"dbr:{occ}"
        city = _choice(rng, _CITIES, _CITY_WEIGHTS)
        city_uri = f"dbr:{city}"
        country, adjective = _choice(rng, _COUNTRIES, _COUNTRY_WEIGHTS)
        country_uri = f"dbr:{country}"
        month = int(rng.choice(12, p=np.asarray(_MONTH_WEIGHTS)))
        day = int(rng.integers(1, 29))
        year = 1900 + int(rng.integers(0, 90))

        while True:
            work_title = f"The {_WORK_ADJ[int(rng.integers(len(_WORK_ADJ)))]} " \
                         f"{nouns[int(rng.integers(len(nouns)))]}"
            work_uri = "dbr:" + work_title.replace(" ", "_") + f"_{i}"
            if work_uri not in used_works:
                used_works.add(work_uri)
                break
        if work_type is not None:
            types[work_uri] = work_type

        t = triples_lines.append
        t(f'{person} dbo:birthDate "{year:04d}-{month + 1:02d}-{day:02d}"^^xsd:date .')
        t(f"{person} dbo:birthPlace {city_uri} .")
        t(f"{person} dbo:nationality {country_uri} .")
        t(f"{person} dbo:occupation {occ_uri} .")
        t(f"{work_uri} {work_pred} {person} .")
        # the pair collapses to one (<item>, dbp:proYears, <year>) triple
        t(f'{person} dbp:proYears "{1980 + int(rng.integers(0, 5))}"^^xsd:integer .')
        t(f'{person} dbp:proYears "{1985 + int(rng.integers(0, 5))}"^^xsd:integer .')
        t(f'{person} dbo:motto "per aspera {i}" .')

        occ_word = occ.lower()
        name_toks = [given, family]
        work_toks = work_title.split(" ")
        # conditioned slots sit close to the sequence start: the decoder is
        # initialised from the triples and desk-scale cells carry that
        # signal over a limited number of steps
        if group == "writer":
            s1 = name_toks + ["is", "a", adjective, occ_word, "born", "in",
                              _MONTHS[month], str(year), "."]
            s2 = [pronoun, "is", "best", "known", "for"] + work_toks + ["."]
            ann = [
                {"sentence_idx": 0, "start": 0, "end": 2, "uri": person, "surface": surface},
                {"sentence_idx": 0, "start": 4, "end": 5, "uri": country_uri, "surface": adjective},
                {"sentence_idx": 0, "start": 5, "end": 6, "uri": occ_uri, "surface": occ_word},
                {"sentence_idx": 1, "start": 5, "end": 5 + len(work_toks), "uri": work_uri,
                 "surface": work_title},
            ]
        elif group == "musician":
            release = 1990 + int(rng.integers(0, 10))
            city_toks = city.replace("_", " ").split(" ")
            s1 = name_toks + ["is", "a", adjective, occ_word, "from"] + city_toks + ["."]
            s2 = [pronoun, "released"] + work_toks + ["in", str(release), "."]
            ann = [
                {"sentence_idx": 0, "start": 0, "end": 2, "uri": person, "surface": surface},
                {"sentence_idx": 0, "start": 4, "end": 5, "uri": country_uri, "surface": adjective},
                {"sentence_idx": 0, "start": 5, "end": 6, "uri": occ_uri, "surface": occ_word},
                {"sentence_idx": 0, "start": 7, "end": 7 + len(city_toks), "uri": city_uri,
                 "surface": city.replace("_", " ")},
                {"sentence_idx": 1, "start": 2, "end": 2 + len(work_toks), "uri": work_uri,
                 "surface": work_title},
            ]
        else:
            s1 = name_toks + ["is", "a", adjective, occ_word, "born", "in",
                              str(year), "."]
            s2 = [pronoun, "directed", "the", "film"] + work_toks + ["."]
            ann = [
                {"sentence_idx": 0, "start": 0, "end": 2, "uri": person, "surface": surface},
                {"sentence_idx": 0, "start": 4, "end": 5, "uri": country_uri, "surface": adjective},
                {"sentence_idx": 0, "start": 5, "end": 6, "uri": occ_uri, "surface": occ_word},
                {"sentence_idx": 1, "start": 4, "end": 4 + len(work_toks), "uri": work_uri,
                 "surface": work_title},
            ]
        summary_lines.append(json.dumps({
            "main_entity": person,
            "sentences": [s1, s2],
            "annotations": ann,
        }, ensure_ascii=False))

    paths = {
        "triples": os.path.join(out_dir, "triples.nt"),
        "summaries": os.path.join(out_dir, "summaries.jsonl"),
        "instance_types": os.path.join(out_dir, "instance_types.tsv"),
        "genders": os.path.join(out_dir, "genders.tsv"),
        "config": os.path.join(out_dir, "demo.cfg"),
    }
    with atomic_open(paths["triples"]) as fh:
        fh.write("\n".join(triples_lines) + "\n")
    with atomic_open(paths["summaries"]) as fh:
        fh.write("\n".join(summary_lines) + "\n")
    with atomic_open(paths["instance_types"]) as fh:
        for uri in sorted(types):
            fh.write(f"{uri}\t{types[uri]}\n")
    with atomic_open(paths["genders"]) as fh:
        for uri in sorted(genders):
            fh.write(f"{uri}\t{genders[uri]}\n")
    with atomic_open(paths["config"]) as fh:
        fh.write(
            "# generated demo configuration\n"
            "mode = uri\n"
            "triples = triples.nt\n"
            "summaries = summaries.jsonl\n"
            "instance_types = instance_types.tsv\n"
            "genders = genders.tsv\n"
            "target_vocab_size = 100000\n"
            "target_vocab_min_count = 2\n"
            "source_min_count = 3\n"
            "year_min = 1000\n"
            "year_max = 2100\n"
            f"seed = {seed}\n")
    return paths
