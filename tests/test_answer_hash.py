from answer_hash import against

SAVED = [
    "log 100 0 exact fixed 5 7 0x1.0000000000000p-8 xs ts 0x1.0p+0 -",
    "exp 100 0 exact fixed 4 4 0x1.8000000000000p-3 xs ts 0x1.0p+0 -",
    "sweep-log 100 0 exact fixed 5 7 ss ts",
    "total aaa",
]


def test_against_ends_with_the_largest_relative_certificate_change(tmp_path, capsys):
    path = tmp_path / "before.txt"
    path.write_text("\n".join(SAVED) + "\n")
    new = [
        SAVED[0].replace("0x1.0000000000000p-8", "0x1.0000000000001p-8"),  # one ulp: 2**-52
        SAVED[1],
        SAVED[2].replace("ss", "s2"),
        "total bbb",
    ]
    assert against(path, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == "3 lines differ; 0 changed iterations or trials"
    assert out[-1] == "largest relative certificate change: 2.2e-16 (log 100 0 exact fixed)"


def test_against_marks_a_changed_trial_count(tmp_path, capsys):
    path = tmp_path / "before.txt"
    path.write_text("\n".join(SAVED) + "\n")
    assert against(path, [SAVED[0].replace(" 5 7 ", " 5 8 ")] + SAVED[1:]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("! - log 100 0") and out[1].startswith("! + log 100 0")
    assert out[-1] == "largest relative certificate change: 0 (log 100 0 exact fixed)"
