# untimed.awk drops the host-timed columns of composebench -csv,
# measured_comp_ms and render_ms, chosen by header name, and keeps every
# deterministic column in order. Run it with awk -F, -f untimed.awk.
NR == 1 {
	for (i = 1; i <= NF; i++)
		drop[i] = $i == "measured_comp_ms" || $i == "render_ms"
}
{
	out = ""
	n = 0
	for (i = 1; i <= NF; i++)
		if (!drop[i])
			out = out (n++ ? "," : "") $i
	print out
}
