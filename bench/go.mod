module sortlast/bench

go 1.22

require sortlast v0.0.0

replace sortlast => ../
