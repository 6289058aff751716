#!/usr/bin/env python3
"""Regenerate the bundled word/TAG lexicon for the baseline tagger.

Curated base lists are expanded with regular inflections (plural nouns,
verb -s/-ing/-ed forms) and written in priority order; the lexicon
loader keeps the first tag it sees for a word, so earlier sections pin
ambiguous words.  Opinion words from the bundled seed lists are folded
in as adjectives.

Usage: python scripts/make_tag_lexicon.py [output-path]
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "src" / "aspectminer" / "data"
sys.path.insert(0, str(REPO / "src"))

from aspectminer.errors import read_text, text_lines  # noqa: E402

# Words whose baseline tag must not be guessed by suffix rules.
PINNED = {
    "to": "TO",
    "there": "EX",
    "not": "RB",
    "n't": "RB",
    "fast": "RB",
    "confusing": "JJ",
    "better": "JJR",
    "best": "JJS",
    "worse": "JJR",
    "worst": "JJS",
    "more": "JJR",
    "most": "JJS",
    "less": "JJR",
    "least": "JJS",
    "earlier": "JJR",
    "earliest": "JJS",
    "people": "NNS",
    "children": "NNS",
    "men": "NNS",
    "women": "NNS",
    "feet": "NNS",
}

DETERMINERS = """the a an this that these those each every some any no all both
another either neither such""".split()

PRONOUNS = "i you he she it we they me him her us them myself yourself itself".split()

POSSESSIVES = "my your his its our their".split()

PREPOSITIONS = """of in on at by with from for about into through during before
after above below between under against without within along across behind
toward towards upon over off around near since until unless although because
while if than as per via""".split()

CONJUNCTIONS = "and but or nor yet so plus".split()

MODALS = "can could will would shall should may might must".split()

WH_DETERMINERS = "which whatever".split()
WH_PRONOUNS = "who what whom".split()
WH_POSSESSIVE = ["whose"]
WH_ADVERBS = "when where why how".split()

INTERJECTIONS = "oh wow hey ok okay yes yeah hmm".split()

PARTICLES = "up out down back away".split()

ADVERBS = """very too quite also just even still already often always sometimes
rarely seldom soon now then here well almost perhaps maybe really pretty
enough again once twice never ever only especially definitely probably
extremely fairly highly simply truly barely nearly immediately finally
overall however moreover instead anyway somewhat absolutely totally
completely actually certainly clearly indeed rather together apart forever
everywhere somewhere anywhere nowhere today tomorrow yesterday online
early late far long ago meanwhile otherwise furthermore nonetheless""".split()

# base, past, participle, 3rd-singular, gerund (blank -> regular form)
IRREGULAR_VERBS = [
    ("be", "was", "been", "is", "being"),
    ("have", "had", "had", "has", "having"),
    ("do", "did", "done", "does", "doing"),
    ("go", "went", "gone", "goes", "going"),
    ("get", "got", "gotten", "gets", "getting"),
    ("make", "made", "made", "makes", "making"),
    ("take", "took", "taken", "takes", "taking"),
    ("come", "came", "come", "comes", "coming"),
    ("see", "saw", "seen", "sees", "seeing"),
    ("know", "knew", "known", "knows", "knowing"),
    ("think", "thought", "thought", "thinks", "thinking"),
    ("find", "found", "found", "finds", "finding"),
    ("give", "gave", "given", "gives", "giving"),
    ("tell", "told", "told", "tells", "telling"),
    ("become", "became", "become", "becomes", "becoming"),
    ("show", "showed", "shown", "shows", "showing"),
    ("leave", "left", "left", "leaves", "leaving"),
    ("feel", "felt", "felt", "feels", "feeling"),
    ("put", "put", "put", "puts", "putting"),
    ("bring", "brought", "brought", "brings", "bringing"),
    ("begin", "began", "begun", "begins", "beginning"),
    ("keep", "kept", "kept", "keeps", "keeping"),
    ("hold", "held", "held", "holds", "holding"),
    ("write", "wrote", "written", "writes", "writing"),
    ("stand", "stood", "stood", "stands", "standing"),
    ("hear", "heard", "heard", "hears", "hearing"),
    ("let", "let", "let", "lets", "letting"),
    ("mean", "meant", "meant", "means", "meaning"),
    ("set", "set", "set", "sets", "setting"),
    ("meet", "met", "met", "meets", "meeting"),
    ("run", "ran", "run", "runs", "running"),
    ("pay", "paid", "paid", "pays", "paying"),
    ("sit", "sat", "sat", "sits", "sitting"),
    ("speak", "spoke", "spoken", "speaks", "speaking"),
    ("lead", "led", "led", "leads", "leading"),
    ("read", "read", "read", "reads", "reading"),
    ("grow", "grew", "grown", "grows", "growing"),
    ("lose", "lost", "lost", "loses", "losing"),
    ("fall", "fell", "fallen", "falls", "falling"),
    ("send", "sent", "sent", "sends", "sending"),
    ("build", "built", "built", "builds", "building"),
    ("understand", "understood", "understood", "understands", "understanding"),
    ("break", "broke", "broken", "breaks", "breaking"),
    ("spend", "spent", "spent", "spends", "spending"),
    ("cut", "cut", "cut", "cuts", "cutting"),
    ("rise", "rose", "risen", "rises", "rising"),
    ("drive", "drove", "driven", "drives", "driving"),
    ("buy", "bought", "bought", "buys", "buying"),
    ("wear", "wore", "worn", "wears", "wearing"),
    ("choose", "chose", "chosen", "chooses", "choosing"),
    ("say", "said", "said", "says", "saying"),
    ("sell", "sold", "sold", "sells", "selling"),
    ("catch", "caught", "caught", "catches", "catching"),
    ("fight", "fought", "fought", "fights", "fighting"),
    ("teach", "taught", "taught", "teaches", "teaching"),
    ("sleep", "slept", "slept", "sleeps", "sleeping"),
    ("shoot", "shot", "shot", "shoots", "shooting"),
    ("throw", "threw", "thrown", "throws", "throwing"),
    ("win", "won", "won", "wins", "winning"),
    ("forget", "forgot", "forgotten", "forgets", "forgetting"),
    ("hit", "hit", "hit", "hits", "hitting"),
    ("eat", "ate", "eaten", "eats", "eating"),
    ("cost", "cost", "cost", "costs", "costing"),
    ("shut", "shut", "shut", "shuts", "shutting"),
    ("freeze", "froze", "frozen", "freezes", "freezing"),
]

# am/are/were are extra forms of "be"
EXTRA_VERB_FORMS = {"am": "VBP", "are": "VBP", "were": "VBD"}

REGULAR_VERBS = """want need like love hate use work look seem turn start help
talk play move live believe happen include continue change watch follow stop
create open walk offer remember consider appear serve die expect stay fill
call try ask provide charge record store click press scroll install download
upload connect sync fit carry recommend return replace ship arrive load
capture focus print scan browse stream pause skip shuffle adjust drain weigh
last wait plug save delete erase format attach detach remove insert eject
update upgrade restart reboot crash hang lag respond press toggle swipe tap
drag drop copy paste edit crop rotate zoom pan tilt mount unmount close
suggest complain praise review rate compare test check notice realize wish
hope plan decide agree disagree refuse accept receive order cancel exchange
refund repair fix clean wipe polish scratch dent bend snap tear rip stain
fade dim brighten mute unmute listen sound ring vibrate beep click whir""".split()

NOUNS = """player camera battery life screen sound software interface earpiece
program equipment size weight transfer picture photo video menu button price
quality case lens flash zoom memory card manual warranty strap box pocket kid
day week month year time thing man woman wife husband son daughter friend
family house room store shop service support line phone call email web site
review customer product item unit model version feature function mode option
setting display resolution pixel color contrast brightness speaker microphone
headphone volume bass treble noise signal reception antenna network wifi
bluetooth cable charger adapter plug port slot disk drive file folder song
track album artist playlist movie clip image view angle shot frame light
night vacation trip bag purse hand finger eye ear face head body side top
bottom front corner edge surface cover lid door window wall floor table desk
chair car road street city town country world money dollar cent deal bargain
refund receipt shipping delivery package order number code name brand company
maker seller buyer owner user guide instruction diagram page chapter section
part piece bit lot bunch couple pair set group kind type sort way reason
problem issue trouble error bug glitch defect flaw crack scratch dent mark
spot stain smudge grip handle knob dial switch lever spring hinge latch clip
hook loop band belt chain cord wire thread seam stitch zipper pouch sleeve
shell casing frame stand mount tripod dock cradle base foot leg arm neck
shoulder wrist waist shirt remote design keyboard viewfinder shutter speed
autofocus choice purchase smartphone computer laptop tablet device gadget
machine tool kit accessory bundle upgrade update firmware hardware system
platform app application instance example sentence word tag aspect opinion
summary report result score test benchmark comparison average total count
percent percentage ratio fraction figure chart graph diagram""".split()

ADJECTIVES = """new old little large small long short high low right left real
whole same different certain important public private open close early late
hot cold warm dark light heavy strong young free sure true main only few
several many much more other second third next last final first double
triple digital optical electric electronic automatic manual portable
wireless wired rechargeable replaceable adjustable removable foldable
compatible standard basic advanced professional standalone internal
external backup extra spare original genuine fake cheap plastic metal
rubber glass leather tiny huge giant narrow wide thick thin deep shallow
flat round square sharp soft hard loose tight""".split()

NUMBERS = """zero one two three four five six seven eight nine ten eleven
twelve thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty
thirty forty fifty sixty seventy eighty ninety hundred thousand million
billion half quarter dozen""".split()


def pluralize(noun: str) -> str:
    if noun.endswith(("s", "x", "z", "ch", "sh")):
        return noun + "es"
    if noun.endswith("y") and noun[-2:-1] not in "aeiou":
        return noun[:-1] + "ies"
    return noun + "s"


def verb_s(base: str) -> str:
    return pluralize(base)


def verb_ing(base: str) -> str:
    if base.endswith("e") and not base.endswith(("ee", "ye", "oe")):
        return base[:-1] + "ing"
    return base + "ing"


def verb_ed(base: str) -> str:
    if base.endswith("e"):
        return base + "d"
    if base.endswith("y") and base[-2:-1] not in "aeiou":
        return base[:-1] + "ied"
    return base + "ed"


def read_opinion_words() -> list[str]:
    return [
        line.lstrip().lower()
        for name in ("positive-words.txt", "negative-words.txt")
        for _, line in text_lines(read_text(DATA / name), comments=True)
    ]


def build_entries() -> list[tuple[str, str]]:
    entries: list[tuple[str, str]] = []

    def add(word: str, tag: str) -> None:
        entries.append((word.lower(), tag))

    for word, tag in PINNED.items():
        add(word, tag)
    for group, tag in (
        (DETERMINERS, "DT"),
        (PRONOUNS, "PRP"),
        (POSSESSIVES, "PRP$"),
        (PREPOSITIONS, "IN"),
        (CONJUNCTIONS, "CC"),
        (MODALS, "MD"),
        (WH_DETERMINERS, "WDT"),
        (WH_PRONOUNS, "WP"),
        (WH_POSSESSIVE, "WP$"),
        (WH_ADVERBS, "WRB"),
        (INTERJECTIONS, "UH"),
        (PARTICLES, "RP"),
        (ADVERBS, "RB"),
        (NUMBERS, "CD"),
    ):
        for word in group:
            add(word, tag)

    # domain nouns next so noun/verb ambiguity resolves toward NN
    for noun in NOUNS:
        add(noun, "NN")
        add(pluralize(noun), "NNS")

    for word in read_opinion_words():
        add(word, "JJ")
    for word in ADJECTIVES:
        add(word, "JJ")

    for base, past, participle, third, gerund in IRREGULAR_VERBS:
        add(base, "VB")
        add(past, "VBD")
        add(participle, "VBN")
        add(third, "VBZ")
        add(gerund, "VBG")
    for word, tag in EXTRA_VERB_FORMS.items():
        add(word, tag)
    for base in REGULAR_VERBS:
        add(base, "VB")
        add(verb_s(base), "VBZ")
        add(verb_ing(base), "VBG")
        add(verb_ed(base), "VBD")

    return entries


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else DATA / "tag-lexicon.txt"
    entries = build_entries()
    seen = set()
    lines = [
        "# word<TAB>TAG lexicon for the baseline tagger; first entry wins.",
        "# Generated by scripts/make_tag_lexicon.py; edit the script, not this file.",
    ]
    kept = 0
    for word, tag in entries:
        if word in seen:
            continue
        seen.add(word)
        lines.append(f"{word}\t{tag}")
        kept += 1
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {kept} entries to {out}")


if __name__ == "__main__":
    main()
