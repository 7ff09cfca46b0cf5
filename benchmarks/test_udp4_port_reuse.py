"""UDP-4 (§4.1 text): port preservation and binding-reuse behaviour.

Paper: 27 of 34 devices prefer the original source port; 23 of those reuse
an expired binding while 4 create a new one; 7 devices never preserve.
"""

from collections import Counter

from conftest import write_artifact

from repro import paperdata


def test_udp4_port_reuse(survey):
    behaviors = survey.udp4  # derived from the campaign's UDP-1 cells
    counts = Counter(b.category for b in behaviors.values())
    lines = ["UDP-4: binding and port-pair reuse behaviour", "-" * 46]
    for tag in sorted(behaviors):
        lines.append(f"{tag:>5}  {behaviors[tag].category}")
    lines.append("")
    lines.append(f"measured: {dict(counts)}")
    lines.append(
        f"paper:    {paperdata.UDP4_PRESERVE_AND_REUSE} preserve+reuse, "
        f"{paperdata.UDP4_PRESERVE_NO_REUSE} preserve+new, "
        f"{paperdata.UDP4_NEVER_PRESERVE} never preserve"
    )
    write_artifact("udp4_port_reuse.txt", "\n".join(lines))

    assert counts["preserves_and_reuses"] == paperdata.UDP4_PRESERVE_AND_REUSE
    assert counts["preserves_no_reuse"] == paperdata.UDP4_PRESERVE_NO_REUSE
    assert counts["new_binding_no_preservation"] == paperdata.UDP4_NEVER_PRESERVE
