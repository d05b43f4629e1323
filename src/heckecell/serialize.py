"""Text and JSON forms for group elements and algebra elements.

Element text form: `pi^k * [i_1,...,i_m]` (the Pi exponent is omitted when
trivial).  Element JSON carries the word form plus the redundant normal
form {lambda, u} which is validated on ingest.  Hecke elements serialize
as arrays sorted by (length, word, Pi index) so output is byte-stable.
Words are read, not rebuilt: an element's own kept word, u's from the W_0
table Weyl.finite_words.  A Hecke element's keys are sorted once by
Weyl.sort_key, which keeps each key's word, and one loop reads that word,
the translation and the coefficient of each term, with the W_0 table
fetched once per call.  Each coefficient is read by LaurentPoly.to_json,
which decodes each multi-digit value once per process.  Every call returns
fresh lists and dicts.
"""

from __future__ import annotations

import json
import re

from .hecke import HeckeElt
from .weyl import GroupElement, Weyl


def element_text(weyl: Weyl, w: GroupElement) -> str:
    return _word_text(weyl.reduced_word(w))


def _word_text(kept: tuple) -> str:
    pi, word = kept
    body = "[" + ",".join(map(str, word)) + "]"
    return f"pi^{pi}*{body}" if pi else body


def element_json(weyl: Weyl, w: GroupElement) -> dict:
    return _element_json(weyl.reduced_word(w), w, weyl.finite_words())


def _element_json(kept: tuple, w: GroupElement, finite_words: tuple) -> dict:
    pi, word = kept
    return {
        "pi": pi,
        "word": list(word),
        "lambda": list(w.translation),
        "u": list(finite_words[w.finite]),
    }


_WORD_RE = re.compile(r"^(?:pi\^(-?\d+)\s*\*\s*)?\[([\d\s,]*)\]$")


def parse_element(weyl: Weyl, text: str) -> GroupElement:
    """Accepts `[1,2,1]`, `pi^k*[...]` or the JSON normal form."""
    text = text.strip()
    if text.startswith("{"):
        return element_from_json(weyl, json.loads(text))
    m = _WORD_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse element {text!r}")
    body = m.group(2).strip()
    word = [int(t) for t in body.split(",")] if body else []
    return _from_word(weyl, int(m.group(1) or 0) % len(weyl.pi_elements), word)


def _from_word(weyl: Weyl, pi, word) -> GroupElement:
    """pi_pi * s_word, with pi an int in 0..|Pi|-1 and word a list of ints
    in 0..num_gens-1 (the text form reduces its exponent k mod |Pi|)."""
    if type(pi) is not int or not 0 <= pi < len(weyl.pi_elements):
        raise ValueError(f"pi index {pi!r} out of range")
    n = weyl.ws.num_gens
    if not isinstance(word, list) or not all(type(i) is int and 0 <= i < n for i in word):
        raise ValueError(f"a word is a list of generator indices 0..{n - 1}, not {word!r}")
    return weyl.from_word(pi, word)


def _lambda(weyl: Weyl, obj: dict) -> tuple:
    lam = obj["lambda"]
    if not isinstance(lam, list) or len(lam) != weyl.ws.rank or any(type(x) is not int for x in lam):
        raise ValueError(f"lambda must be {weyl.ws.rank} integers, not {lam!r}")
    return tuple(lam)


def element_from_json(weyl: Weyl, obj: dict) -> GroupElement:
    if "word" in obj or "pi" in obj:
        w = _from_word(weyl, obj.get("pi", 0), obj.get("word", []))
        if "lambda" in obj and _lambda(weyl, obj) != w.translation:
            raise ValueError("normal form does not match the word form")
        return w
    if "lambda" in obj and "u" in obj:
        lam = _lambda(weyl, obj)
        u = _from_word(weyl, 0, obj["u"])
        if any(u.translation):
            raise ValueError("u is not a finite-part word")
        return weyl.element(u.finite, weyl.ws.check_lattice(lam))
    raise ValueError(f"cannot interpret element object {obj!r}")


def hecke_json(weyl: Weyl, h: HeckeElt) -> list:
    """The terms sorted by sort_key, which keeps each element's word."""
    d, finite_words = h._d, weyl.finite_words()
    return [
        {"element": _element_json(w._word, w, finite_words), "coeff": d[w].to_json()}
        for w in sorted(d, key=weyl.sort_key)
    ]


def hecke_text(weyl: Weyl, h: HeckeElt) -> str:
    """The terms sorted by sort_key, which keeps each element's word."""
    d = h._d
    return "\n".join(f"({d[w]})  T_{_word_text(w._word)}" for w in sorted(d, key=weyl.sort_key)) or "0"


def weight_text(lam) -> str:
    return "(" + ",".join(str(x) for x in lam) + ")"
