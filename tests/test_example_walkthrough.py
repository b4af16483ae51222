import example_walkthrough


def test_walkthrough_prints_what_readme_states(capsys):
    """The joint optimum, the three certificate vertices at the origin and the
    MIS cut with its CGLP value, as README states them."""
    example_walkthrough.main()
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for expected in [
        "joint model optimum: 11/3",
        "vertex (0, 0, 1/14, 2/7) -> x + eta >= 7/2   minimal support: True",
        "vertex (0, 1/3, 0, 1/3) -> 1/2 x + eta >= 3   minimal support: True",
        "vertex (1/5, 0, 0, 1/5) -> 2 x + eta >= 5   minimal support: True",
        "smallest multipliers: x + eta >= 7/2   value -5/14, supporting: False",
    ]:
        assert expected in lines
